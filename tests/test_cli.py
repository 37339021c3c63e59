"""CLI and configuration: validation, determinism, echo round-trip."""

import csv
import json
import math
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from braggsim import analysis, cli, ladder
from braggsim.analysis import HarmonicFit
from braggsim.cli import main
from braggsim.config import (
    ConfigError,
    ExperimentConfig,
    TideComponentBlock,
    echo_config,
    load_config,
    parse_config,
    resolve,
)
from braggsim.report import CHUNK_ROWS, dumps_stable, format_float, write_table
from braggsim.sequence import prepare_sequence, scan_fringe

FAST_FRINGE = """
seed: 11
gravity_m_s2: 9.81
sequence:
  order: 2
  interrogation_time_s: 2.0e-3
  pulse_sigma_s: 15.0e-6
ensemble:
  samples: 4
  sigma_q_hk: 0.42
noise:
  mirror_phase_rms_rad: 0.02
  detection_snr: 50.0
scan:
  target: phase
  start: 0.0
  stop: 12.566370614359172
  points: 16
"""

# every subcommand finishes on this in about a second; revivals swaps in a
# scan of 8 interrogation times 4 us apart
TINY = """
seed: 3
sequence: {order: 2, interrogation_time_s: 0.8e-3, pulse_sigma_s: 5.0e-6}
ensemble: {samples: 2, sigma_q_hk: 0.42}
scan: {target: phase, start: 0.0, stop: 12.566370614359172, points: 16}
gradiometer: {lower_momentum_hk: 12, upper_momentum_hk: 2}
gravity_run: {shots: 64, bin_size: 8}
tide: {components: [{amplitude_m_s2: 1.0e-6, period_h: 0.005}]}
bvs: {profile_points: 3}
pulse: {sigma_s: 5.0e-6}
class_oracle: {time_points: 16}
"""
REVIVAL_SCAN = {"target": "interrogation_time", "start": 0.8e-3,
                "stop": 0.832e-3, "points": 8}
# subcommand: (CSV table, its header, summary result keys)
SUBCOMMAND_OUTPUTS = {
    "pulse": ("pulse_populations", "site,population",
              {"omega0_rad_s", "norm", "transfer"}),
    "bvs": ("bvs_profile", "momentum_hk,transfer",
            {"center_transfer", "profile_fwhm_hk", "sweep_duration_s"}),
    "fringe": ("fringe", "phase_rad,port0,port2,normalized",
               {"beamsplitter_omega0", "mirror_omega0", "fit"}),
    "revivals": ("revivals", "interrogation_time_s,contrast",
                 {"revival_period_s", "fitted_period_s",
                  "fitted_first_maximum_s", "period_ratio"}),
    "gradiometer": ("gradiometer", "phase_rad,p_lower,p_upper",
                    {"baseline_m", "gravity_lower", "gravity_upper",
                     "fit_lower", "fit_upper", "retained_shots"}),
    "gravity-run": ("gravity_series",
                    "time_s,gravity_true,normalized_population,gravity_recovered",
                    {"bias_phase_rad", "calibration", "mean_gravity",
                     "saturated_shots", "components"}),
    "allan": ("allan", "tau_s,allan_deviation",
              {"points", "loglog_slope", "notices", "last_tau_s", "last_value",
               "saturated_shots"}),
    "class-oracle": ("class_oracle", "interrogation_time_s,contrast_proxy",
                     {"class_index", "revival_period_s", "trajectories"}),
    "calibrate": (None, None,
                  {"omega0_rad_s", "order", "sigma_s", "transfer_target"}),
}

_HINTS = get_type_hints(ExperimentConfig)
_BLOCKS = {key: tp for key, tp in _HINTS.items() if is_dataclass(tp)}
_KEYS = sorted({*_HINTS, *(key for tp in [*_BLOCKS.values(), TideComponentBlock]
                           for key in get_type_hints(tp))})
_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=6)
         | st.sampled_from(["2e-3", "resonant", "calibrated", "phase"]))
_VALUE = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3), max_leaves=6)


def mappings(hints, max_size):
    """Mappings over the keys of ``hints``. A block key mostly takes a
    mapping over the block's own keys, a scalar key often a value of its own
    annotated type (floats include NaN and inf)."""
    def entry(key):
        tp = hints[key]
        if is_dataclass(tp):
            value = mappings(get_type_hints(tp), 3) | _VALUE
        elif key == "components":
            value = st.lists(mappings(get_type_hints(TideComponentBlock), 3),
                             max_size=2) | _VALUE
        else:
            value = st.from_type(tp) | _VALUE
        return st.tuples(st.just(key), value)
    return st.lists(st.sampled_from(sorted(hints)).flatmap(entry),
                    max_size=max_size).map(dict)


def has_annotated_type(tp, value) -> bool:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return value in args
    if origin is list:
        return type(value) is list and all(has_annotated_type(args[0], v)
                                           for v in value)
    if args:
        return any(has_annotated_type(arm, value) for arm in args)
    if is_dataclass(tp):
        return type(value) is tp and all(
            has_annotated_type(t, getattr(value, key))
            for key, t in get_type_hints(tp).items())
    if tp is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is tp


DUPLICATE_PERIOD = """
seed: 7
sequence: {order: 2, interrogation_time_s: 2.0e-3, pulse_sigma_s: 5.0e-6}
ensemble: {samples: 2, sigma_q_hk: 0.42}
tide:
  components:
    - {amplitude_m_s2: 1.0e-6, period_h: 12.42}
    - {amplitude_m_s2: 1.0e-6, period_h: 12.42}
gravity_run: {shots: 64, bin_size: 8}
"""


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestShippedConfigs:
    def test_all_example_configs_parse(self):
        import pathlib
        configs = sorted((pathlib.Path(__file__).parent.parent / "configs"
                          ).glob("*.yaml"))
        assert len(configs) >= 5
        for path in configs:
            cfg = load_config(path)
            resolve(cfg)
            assert parse_config(yaml.safe_load(echo_config(cfg))) == cfg


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config({})
        assert cfg.sequence.order == 2
        assert cfg.noise.detection_snr == 50.0
        assert cfg.scan.target == "phase"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            parse_config({"not_a_key": 1})

    def test_unknown_block_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"noise\.snr"):
            parse_config({"noise": {"snr": 10}})

    def test_bad_scan_target(self):
        with pytest.raises(ConfigError, match=r"scan\.target"):
            parse_config({"scan": {"target": "banana"}})

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mappings(_HINTS, 4))
    def test_random_mappings_parse_typed_or_fail_cleanly(self, data):
        try:
            cfg = parse_config(data)
            resolve(cfg)
        except ConfigError:
            return
        assert has_annotated_type(ExperimentConfig, cfg)
        assert parse_config(yaml.safe_load(echo_config(cfg))) == cfg

    def test_comments_supported(self, tmp_path):
        path = write_config(tmp_path, "# a comment\nseed: 3  # inline\n")
        assert load_config(path).seed == 3

    @pytest.mark.parametrize("text, key, line", [
        ("noise: {mirror_phase_rms_rad: 0.5}\nseed: 3\nnoise: {detection_snr: 10.0}\n",
         "noise", 3),
        ("ensemble:\n  samples: 2\n  samples: 3\n", "samples", 3),
        ("tide:\n  components:\n    - {period_h: 12.0, period_h: 24.0}\n",
         "period_h", 3),
    ], ids=["block", "block-key", "list-element"])
    def test_repeated_key_rejected(self, tmp_path, text, key, line):
        # a plain YAML load keeps the last value and drops the first silently
        with pytest.raises(ConfigError, match=rf"duplicate key '{key}'\n.*line {line},"):
            load_config(write_config(tmp_path, text))

    def test_echo_round_trip(self):
        cfg = parse_config(yaml.safe_load(FAST_FRINGE))
        echoed = yaml.safe_load(echo_config(cfg))
        assert parse_config(echoed) == cfg

    def test_config_echo_is_complete(self):
        d = asdict(ExperimentConfig())
        assert set(d) >= {"seed", "species", "sequence", "ensemble", "noise",
                          "tide", "scan", "bvs", "gradiometer", "gravity_run"}


class TestFloatSerialization:
    def test_17_digit_round_trip(self):
        for x in (math.pi, 1 / 3, 2.5e-9, 9.81):
            assert float(format_float(x)) == x

    def test_stable_json_sorted(self):
        s = dumps_stable({"b": 1.5, "a": {"z": 0.1, "y": 2}})
        assert s.index('"a"') < s.index('"b"')
        assert "0.10000000000000001" in s

    def test_stable_json_exact_text(self):
        sample = {"b": [1, 2.5, None, True, "s", (), {}],
                  "a": {"z": 0.1, "y": (False, -3)}}
        assert dumps_stable(sample) == (
            '{\n  "a": {\n    "y": [\n      false,\n      -3\n    ],\n'
            '    "z": 0.10000000000000001\n  },\n  "b": [\n    1,\n    2.5,\n'
            '    null,\n    true,\n    "s",\n    [],\n    {}\n  ]\n}')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stable_json_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"\$\.fit\.amplitudes\[1\]"):
            dumps_stable({"fit": {"amplitudes": [0.5, bad]}})

    def test_table_bytes_are_csv_writer_bytes(self, tmp_path):
        header = ["site", "time_s", "gravity_true", "port2", "normalized"]
        rows = [(-3, 0.1, 9.8100000000000023, -0.0, 5e-324),
                (0, 1 / 3, np.float64(2.2250738585072014e-308), 1e300, -1.5e-17),
                (np.int64(7), 2.0, 0.0, math.pi, -2.2250738585072009e-308)]
        path = write_table(tmp_path, "t", header, list(zip(*rows)))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_MINIMAL).writerows(
                [header] + [[format_float(v) if isinstance(v, float) else v
                             for v in row] for row in rows])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert path.read_bytes().count(b"\r\n") == 4

    def test_table_bytes_across_chunk_seams(self, tmp_path):
        # rows 0 .. 2 * CHUNK_ROWS + 2: two seams and a short last chunk
        n = 2 * CHUNK_ROWS + 3
        special = [-0.0, 5e-324, -2.2250738585072009e-308, 1e300, 1 / 3]
        site = np.arange(n, dtype=np.int64) - CHUNK_ROWS
        a = np.resize(special, n)
        b = np.linspace(-1.0, 1.0, n) ** 3 * 9.81e5
        path = write_table(tmp_path, "t", ["site", "a", "b"], (site, a, b))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_MINIMAL).writerows(
                [["site", "a", "b"]] + [[s, format_float(x), format_float(y)]
                                        for s, x, y in zip(site.tolist(), a, b)])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert path.read_bytes().count(b"\r\n") == n + 1

        empty = tmp_path / "rejected"
        empty.mkdir()
        b[CHUNK_ROWS] = math.nan   # the first row of the second chunk
        with pytest.raises(ValueError, match=rf"^non-finite value nan in table t, "
                                             rf"row {CHUNK_ROWS}, column b$"):
            write_table(empty, "t", ["site", "a", "b"], (site, a, b))
        with pytest.raises(ValueError, match=rf"^table t is ragged: 3 header cells, "
                                             rf"column lengths \[{n}, {n - 1}, {n}\]$"):
            write_table(empty, "t", ["site", "a", "b"], (site, a[:-1], a))
        assert list(empty.iterdir()) == []

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r",
                                      "", None], ids=["comma", "quote", "newline",
                                                      "carriage-return", "empty",
                                                      "none"])
    def test_table_rejects_a_cell_csv_would_quote(self, tmp_path, cell):
        with pytest.raises(ValueError, match="empty or would be quoted"):
            write_table(tmp_path, "t", ["x", cell], [(1.0,), (2.0,)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell", ["a", "1.5", None, True, 1j],
                             ids=["text", "numeric-text", "none", "bool", "complex"])
    def test_table_rejects_a_non_numeric_column(self, tmp_path, cell):
        # only integer and float columns are written: no text path remains
        with pytest.raises(ValueError, match="^column y of table t is not a 1-D "
                                             "integer or float array"):
            write_table(tmp_path, "t", ["x", "y"], [(1.0,), (cell,)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     np.float32("nan")],
                             ids=["nan", "inf", "-inf", "float32-nan"])
    def test_table_rejects_non_finite(self, tmp_path, bad):
        # the first bad cell in row order is named by table, row and column,
        # though an earlier column holds one in a later row
        rows = [(0, 1.0, 2.0), (1, 3.0, bad), (2, bad, 4.0)]
        with pytest.raises(ValueError, match=r"in table t, row 1, column y$"):
            write_table(tmp_path, "t", ["site", "x", "y"], list(zip(*rows)))

    @pytest.mark.parametrize("header, bad", [
        (["x", "y"], math.nan), (["x", "y"], ""), (["x", "y"], "a,b"),
        (["x", ""], 1.0)], ids=["nan", "empty", "quoted", "header"])
    def test_rejected_table_leaves_no_file(self, tmp_path, header, bad):
        # every check runs before the file opens
        with pytest.raises(ValueError):
            write_table(tmp_path, "t", header, list(zip(*[(1, 2), (bad, 2.0)])))
        assert list(tmp_path.iterdir()) == []


class TestCliRuns:
    def test_fringe_run_and_outputs(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FRINGE)
        out = tmp_path / "out"
        assert main(["fringe", cfg, "--out-dir", str(out)]) == 0
        assert (out / "fringe.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "resolved_config.yaml").exists()
        header = (out / "fringe.csv").read_text().splitlines()[0]
        assert header == "phase_rad,port0,port2,normalized"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["subcommand"] == "fringe"
        assert len(summary["results"]["fit"]["amplitudes"]) == 3
        assert set(summary["versions"]) == {"braggsim", "numpy", "python"}

    def test_byte_stable_outputs(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FRINGE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["fringe", cfg, "--out-dir", str(out1)]) == 0
        assert main(["fringe", cfg, "--out-dir", str(out2)]) == 0
        assert (out1 / "fringe.csv").read_bytes() == (out2 / "fringe.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()

    def test_rerun_from_echoed_config(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FRINGE)
        out1 = tmp_path / "o1"
        assert main(["fringe", cfg, "--out-dir", str(out1)]) == 0
        echoed = tmp_path / "echoed.yaml"
        echoed.write_text((out1 / "resolved_config.yaml").read_text())
        out2 = tmp_path / "o2"
        assert main(["fringe", str(echoed), "--out-dir", str(out2)]) == 0
        assert (out1 / "fringe.csv").read_bytes() == (out2 / "fringe.csv").read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FRINGE)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["fringe", cfg, "--out-dir", str(out1)]) == 0
        assert main(["fringe", cfg, "--out-dir", str(out2), "--seed", "99"]) == 0
        assert (out1 / "fringe.csv").read_bytes() != (out2 / "fringe.csv").read_bytes()

    def test_non_finite_result_exits_2_without_summary(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "calibrate",
                            lambda run: ({"omega0_rad_s": math.nan}, {}))
        out = tmp_path / "nan"
        assert main(["calibrate", write_config(tmp_path, ""),
                     "--out-dir", str(out)]) == 2
        assert not (out / "summary.json").exists()
        assert "$.results.omega0_rad_s" in capsys.readouterr().err

    def test_non_finite_result_leaves_no_table(self, tmp_path, monkeypatch,
                                              capsys):
        # the table is finite and complete, but a table of a failed run would
        # read as a finished run
        monkeypatch.setitem(cli._COMMANDS, "calibrate", lambda run: (
            {"omega0_rad_s": math.nan}, {"t": (["x"], [(1.0,), (2.0,)])}))
        out = tmp_path / "nan"
        assert main(["calibrate", write_config(tmp_path, ""),
                     "--out-dir", str(out)]) == 2
        assert "$.results.omega0_rad_s" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_gravity_run_leaves_no_file(self, tmp_path, capsys):
        # the same tide period twice makes the harmonic recovery fail after
        # the series is computed, so both of its tables were ready to write
        out = tmp_path / "grun"
        assert main(["gravity-run", write_config(tmp_path, DUPLICATE_PERIOD),
                     "--out-dir", str(out)]) == 2
        assert "rank deficient" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_run_removes_an_earlier_summary(self, tmp_path):
        # an earlier run's summary would describe a run that failed
        out = tmp_path / "grun"
        good = DUPLICATE_PERIOD.replace(   # one of the two components
            "    - {amplitude_m_s2: 1.0e-6, period_h: 12.42}\n", "", 1)
        assert main(["gravity-run", write_config(tmp_path, good),
                     "--out-dir", str(out)]) == 0
        records = ("summary.json", "resolved_config.yaml", "run_meta.json")
        assert all((out / name).exists() for name in records)
        assert main(["gravity-run", write_config(tmp_path, DUPLICATE_PERIOD),
                     "--out-dir", str(out)]) == 2
        assert not any((out / name).exists() for name in records)

    @pytest.mark.parametrize("point", ["write_summary", "write_table",
                                       "resolved_config.yaml", "write_run_meta"])
    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                           point):
        # each write fails after its file is written, as a full disk may on
        # close; the run must leave none of its files, nor an earlier run's
        config = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        out.mkdir()
        for name in ("summary.json", "resolved_config.yaml", "run_meta.json",
                     *(f"{table}.csv" for table in cli._TABLES)):
            (out / name).write_text("an earlier run\n")

        def failing(write):
            def wrapped(*args, **kwargs):
                write(*args, **kwargs)
                raise OSError(28, "No space left on device")
            return wrapped

        if point == "resolved_config.yaml":
            write_text = Path.write_text
            monkeypatch.setattr(Path, "write_text", lambda path, *a, **k: (
                failing(write_text) if path.name == point else write_text)(path, *a, **k))
        else:
            monkeypatch.setattr(cli, point, failing(getattr(cli, point)))
        assert main(["class-oracle", config, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "write error: [Errno 28] No space left on device\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", ["missing", "directory", "undecodable",
                                      "out-dir-is-a-file", "out-dir-under-a-file"])
    def test_unreadable_config_or_out_dir_exits_1(self, tmp_path, monkeypatch,
                                                  capsys, case):
        solves = []
        monkeypatch.setattr(ladder, "solve_ivp", lambda *a, **k: solves.append(1))
        config = write_config(tmp_path, FAST_FRINGE)
        (tmp_path / "undecodable.yaml").write_bytes(b"seed: \xff\n")
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        out = str(tmp_path / "out")
        args = {"missing": [str(tmp_path / "missing.yaml"), "--out-dir", out],
                "directory": [str(tmp_path), "--out-dir", out],
                "undecodable": [str(tmp_path / "undecodable.yaml"), "--out-dir", out],
                "out-dir-is-a-file": [config, "--out-dir", str(blocker)],
                "out-dir-under-a-file": [config, "--out-dir", str(blocker / "out")],
                }[case]
        assert main(["fringe", *args]) == 1
        # the message names the key the path came from
        key = "out_dir " + args[-1] if case.startswith("out-dir") else "config " + args[0]
        assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
        assert solves == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, value, path", [
        ("noise", "mirror_phase_rms_rad", math.nan, "noise.mirror_phase_rms_rad"),
        ("noise", "tilt_drift_rad_per_hour", math.inf,
         "noise.tilt_drift_rad_per_hour"),
        ("noise", "detection_snr", math.nan, "noise.detection_snr"),
        ("noise", "detection_snr", math.inf, "noise.detection_snr"),
        (None, "gravity_m_s2", math.inf, "gravity_m_s2"),
        ("tide", "components", [{"amplitude_m_s2": math.nan}],
         "tide.components[0].amplitude_m_s2"),
        ("noise", "detection_snr", None, None),
    ], ids=["mirror-nan", "tilt-inf", "snr-nan", "snr-inf", "gravity-inf",
            "tide-component-nan", "snr-null"])
    def test_config_numbers_finite_at_load(self, tmp_path, capsys,
                                           block, key, value, path):
        data = yaml.safe_load(FAST_FRINGE)
        (data if block is None else data.setdefault(block, {}))[key] = value
        cfg = write_config(tmp_path, yaml.safe_dump(data))
        out = tmp_path / "out"
        code = main(["fringe", cfg, "--out-dir", str(out)])
        if path is None:
            # null is how a config switches detection noise off
            assert code == 0
            assert load_config(cfg).noise.detection_snr is None
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"]["noise"]["detection_snr"] is None
            assert "detection_snr: null" in (out / "resolved_config.yaml").read_text()
        else:
            assert code == 1
            assert f"{path}: must be finite" in capsys.readouterr().err
            assert not (out / "fringe.csv").exists()

    @pytest.mark.parametrize("block, values, message", [
        # safe_dump writes the string unquoted, as a user would: 2e-3
        ("sequence", {"interrogation_time_s": "2e-3"},
         "sequence.interrogation_time_s: expected float, got str '2e-3'; "
         "YAML 1.1 reads that as a string: write 2.0e-3"),
        ("scan", {"points": True}, "scan.points: expected int, got bool True"),
        ("gravity_run", {"shots": 2000.0},
         "gravity_run.shots: expected int, got float 2000.0"),
        (None, {"seed": None}, "seed: expected int, got null"),
        ("ensemble", {"samples": 0}, "ensemble.samples: must be >= 1, got 0"),
        ("noise", {"detection_snr": -1}, "noise.detection_snr: must be > 0, got -1"),
        ("bvs", {"target_momentum_hk": 3}, "bvs: target_momentum must be"),
        ("evolution", {"guard_sites": 2},
         "evolution.guard_sites: must be >= 4, got 2"),
        (None, {"seed": -1}, "seed: must be >= 0, got -1"),
        ("ensemble", {"seed": -1}, "ensemble.seed: must be >= 0, got -1"),
        ("sequence", {"order": 0}, "sequence.order: must be >= 1, got 0"),
        ("sequence", {"interrogation_time_s": -1.0},
         "sequence.interrogation_time_s: must be > 0, got -1.0"),
        ("sequence", {"pulse_sigma_s": -1.0},
         "sequence.pulse_sigma_s: must be > 0, got -1.0"),
        ("geometry", {"tilt_deg": 95.0},
         "geometry.tilt_deg: must lie in [0, 90), got 95.0"),
        ("gravity_run", {"shots": 0}, "gravity_run.shots: must be >= 1, got 0"),
        ("gravity_run", {"bin_size": 0}, "gravity_run.bin_size: must be >= 2, got 0"),
        ("gravity_run", {"bin_size": 1}, "gravity_run.bin_size: must be >= 2, got 1"),
        ("gravity_run", {"shot_period_s": 0.0},
         "gravity_run.shot_period_s: must be > 0, got 0.0"),
        ("pulse", {"order": 0}, "pulse.order: must be >= 1, got 0"),
        ("pulse", {"transfer_target": 1.5},
         "pulse.transfer_target: must lie in (0, 1], got 1.5"),
        ("bvs", {"depth_er": 0}, "bvs.depth_er: must be > 0, got 0"),
        ("pulse", {"quasimomentum_hk": 1.5},
         "pulse.quasimomentum_hk: must lie in [-1, 1], got 1.5"),
        ("bvs", {"profile_min_hk": -2.5},
         "bvs.profile_min_hk: must lie in [-2, 2], got -2.5"),
        ("bvs", {"profile_points": 0}, "bvs.profile_points: must be >= 1, got 0"),
        ("class_oracle", {"time_points": 0},
         "class_oracle.time_points: must be >= 1, got 0"),
        ("class_oracle", {"time_min_s": -1.0e-6},
         "class_oracle.time_min_s: must be >= 0, got -1e-06"),
        ("class_oracle", {"time_min_s": 2.0e-4},
         "class_oracle: time_min_s must not exceed time_max_s"),
        ("class_oracle", {"a_min": 2, "a_max": 1},
         "class_oracle: a_max 1 must be >= a_min 2"),
        ("gradiometer", {"order": 2}, "gradiometer.order: unknown key"),
        ("sequence", {"sweep_rate_hz_per_s": 1.6e7},
         "sequence.sweep_rate_hz_per_s: unknown key"),
        ("sequence", {"phase_offset_rad": 1.0},
         "sequence.phase_offset_rad: unknown key"),
        ("ensemble", {"sigma_q_hk": 1.0e9},
         "ensemble.sigma_q_hk: must lie in [0, 10], got 1000000000.0"),
    ], ids=["exponent-string", "bool-points", "float-shots", "null-seed",
            "samples-0", "snr-negative", "bvs-odd-momentum", "guard-sites-2",
            "seed-negative", "ensemble-seed-negative",
            "sequence-order-0", "interrogation-time-negative",
            "pulse-sigma-negative", "tilt-95", "shots-0", "bin-size-0", "bin-size-1",
            "shot-period-0", "pulse-order-0", "transfer-target-1.5",
            "bvs-depth-0", "pulse-quasimomentum-1.5", "bvs-profile-beyond-2",
            "bvs-profile-points-0",
            "class-oracle-points-0", "class-oracle-time-negative",
            "class-oracle-window-reversed",
            "class-oracle-a-reversed", "gradiometer-order", "sweep-rate-key",
            "phase-offset-key", "sigma-q-1e9"])
    def test_bad_input_exits_1_at_load(self, tmp_path, capsys,
                                       block, values, message):
        data = yaml.safe_load(FAST_FRINGE)
        (data if block is None else data.setdefault(block, {})).update(values)
        cfg = write_config(tmp_path, yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main(["fringe", cfg, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "fringe.csv").exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_subcommand_runs(self, tmp_path, command):
        table, header, keys = SUBCOMMAND_OUTPUTS[command]
        data = yaml.safe_load(TINY)
        if command == "revivals":
            data["scan"] = REVIVAL_SCAN
        out = tmp_path / "out"
        assert main([command, write_config(tmp_path, yaml.safe_dump(data)),
                     "--out-dir", str(out)]) == 0
        if table is not None:
            assert (out / f"{table}.csv").read_text().splitlines()[0] == header
        # main removes the tables it lists before a run, so it must list all
        assert {path.stem for path in out.glob("*.csv")} <= set(cli._TABLES)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["subcommand"] == command
        assert keys <= set(summary["results"]), summary["results"]

    def test_a_run_removes_another_subcommands_tables(self, tmp_path):
        # a table of an earlier run left beside this run's summary would
        # read as part of this run
        out = tmp_path / "out"
        path = write_config(tmp_path, TINY)
        assert main(["class-oracle", path, "--out-dir", str(out)]) == 0
        assert main(["bvs", path, "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "bvs_profile.csv", "resolved_config.yaml", "run_meta.json", "summary.json"]

    @pytest.mark.parametrize("overrides", [[], ["--seed", "3", "--out-dir", "o"]],
                             ids=["plain", "seed-and-out-dir"])
    def test_each_block_is_built_once_per_run(self, tmp_path, monkeypatch,
                                              overrides):
        built = {key: tp for key, tp in _BLOCKS.items() if hasattr(tp, "resolve")}
        assert len(built) == 6
        counts = dict.fromkeys(built, 0)
        for key, tp in built.items():
            def counted(block, *args, _key=key, _resolve=tp.resolve):
                counts[_key] += 1
                return _resolve(block, *args)
            monkeypatch.setattr(tp, "resolve", counted)
        monkeypatch.chdir(tmp_path)
        assert main(["fringe", write_config(tmp_path, TINY), *overrides]) == 0
        assert counts == dict.fromkeys(built, 1)

    def test_gradiometer_honours_beam_tilt(self, tmp_path):
        # the gradient enters only through its projection on the tilted beam,
        # so a 60 degree tilt runs as the vertical beam at cos(60) of the
        # gradient; the gradient is large enough to move the fringe
        def populations(tilt_deg, gradient):
            data = yaml.safe_load(TINY)
            data["geometry"] = {"tilt_deg": tilt_deg}
            data["gradiometer"]["gradient_per_s2"] = gradient
            out = tmp_path / f"tilt{tilt_deg}-G{gradient}"
            path = write_config(tmp_path, yaml.safe_dump(data), "tilt.yaml")
            assert main(["gradiometer", path, "--out-dir", str(out)]) == 0
            return np.loadtxt(out / "gradiometer.csv", delimiter=",", skiprows=1)

        tilted = populations(60.0, 10.0)
        np.testing.assert_allclose(
            tilted, populations(0.0, 10.0 * math.cos(math.pi / 3)), atol=1e-9)
        assert np.abs(tilted - populations(0.0, 10.0)).max() > 1e-3

    def test_gradiometer_correlation_gate_is_the_library_rule(self, tmp_path,
                                                              monkeypatch):
        # the CLI reports pearson_r exactly when the library would correlate
        # the retained shots, whatever the minimum is
        path = write_config(tmp_path, TINY)

        def results(minimum):
            monkeypatch.setattr(analysis, "CORRELATION_MIN_SHOTS", minimum)
            out = tmp_path / f"min{minimum}"
            assert main(["gradiometer", path, "--out-dir", str(out)]) == 0
            return json.loads((out / "summary.json").read_text())["results"]

        kept = results(analysis.CORRELATION_MIN_SHOTS)["retained_shots"]
        assert kept >= 3
        assert "pearson_r" in results(kept)
        assert "pearson_r" not in results(kept + 1)
        with pytest.raises(ValueError, match=f"need at least {kept + 1} shots"):
            analysis.gradiometer_correlation(np.arange(kept), np.arange(kept))

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_FRINGE)
        out = tmp_path / "out"
        assert main(["fringe", cfg, "--seed", "-1", "--out-dir", str(out)]) == 1
        assert "seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / "fringe.csv").exists()

    def test_fringe_sweep_rate_rows_match_run_shot(self, tmp_path):
        text = """
seed: 4
sequence: {order: 2, interrogation_time_s: 2.0e-3, pulse_sigma_s: 5.0e-6}
ensemble: {samples: 1, sigma_q_hk: 0.0}
noise: {mirror_phase_rms_rad: 0.02, detection_snr: 50.0}
scan: {target: sweep_rate, start: -500.0, stop: 500.0, points: 3}
"""
        path = write_config(tmp_path, text)
        out = tmp_path / "sweep"
        assert main(["fringe", path, "--out-dir", str(out)]) == 0
        lines = (out / "fringe.csv").read_text().splitlines()
        assert lines[0] == "sweep_rate_offset_hz_per_s,port0,port2,normalized"
        assert len(lines) == 1 + 3

        cfg = load_config(path)
        species = cfg.species.resolve()
        seq = prepare_sequence(species, order=2, interrogation_time=2.0e-3,
                               pulse_sigma=5.0e-6)
        for i, offset in enumerate(cfg.scan.grid()):
            # shot i: the one-point scan at final-pulse phase 0
            shot = scan_fringe(species, cfg.ensemble, seq, cfg.noise, [0.0], cfg.seed,
                               shot_index_offset=i, sweep_rate_offset=offset)
            expected = [offset, shot.port_populations[0][0], shot.port_populations[2][0],
                        shot.normalized[0]]
            assert lines[1 + i] == ",".join(format_float(v) for v in expected)

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "nonsense_key: 1\n")
        assert main(["fringe", cfg]) == 1

    def test_empty_scan_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FRINGE + "\n")
        bad = yaml.safe_load(FAST_FRINGE)
        bad["scan"]["points"] = 0
        cfg = write_config(tmp_path, yaml.safe_dump(bad))
        out = tmp_path / "never"
        assert main(["fringe", cfg, "--out-dir", str(out)]) == 1
        assert not (out / "fringe.csv").exists()

    RATE = {"sequence": {"sweep_rate_hz_per_s": 1.6e7}}

    @pytest.mark.parametrize("command, changes, message", [
        ("fringe", {"scan": {"target": "interrogation_time"}},
         "scan.target: subcommand requires target 'phase' or 'sweep_rate', "
         "got 'interrogation_time'"),
        ("revivals", {"scan": {"target": "phase"}},
         "scan.target: subcommand requires target 'interrogation_time'"),
        ("revivals", {"scan": {"target": "interrogation_time", "start": 1e-3,
                               "stop": 1.0125e-3, "points": 4}},
         "scan.points: need at least 8 interrogation times, got 4"),
        ("gradiometer", {"scan": {"target": "interrogation_time"}},
         "scan.target: subcommand requires target 'phase'"),
        ("revivals", {"scan": {"target": "interrogation_time", "start": 1.0e-4,
                               "stop": 2.0e-4, "points": 8}},
         "scan.points: T step 1.25e-05s exceeds revival_period/8"),
        ("gravity-run", {"gravity_run": {"shots": 10, "bin_size": 38}},
         "gravity_run.bin_size: need at least 38 samples for one bin, got 10"),
        ("allan", {"gravity_run": {"shots": 3}},
         "gravity_run.shots: need at least 4 samples, got 3"),
        # 4 bins cannot fit an offset and one component's two terms with
        # two bins to spare
        ("gravity-run", {"gravity_run": {"shots": 64, "bin_size": 16},
                         "tide": {"components": [{"period_h": 12.42}]}},
         "gravity_run.shots: need at least 5 tide-fit bins, got 4"),
        # the schedule takes no sweep rate; each of these sets its own
        ("gradiometer", RATE, "sequence.sweep_rate_hz_per_s: unknown key"),
        ("gravity-run", RATE, "sequence.sweep_rate_hz_per_s: unknown key"),
        ("allan", RATE, "sequence.sweep_rate_hz_per_s: unknown key"),
        ("fringe", {**RATE, "scan": {"target": "sweep_rate"}},
         "sequence.sweep_rate_hz_per_s: unknown key"),
        # 15 us pulses last 90 us each: T = 0 cannot hold them
        ("revivals", {"scan": {"target": "interrogation_time", "start": 0.0,
                               "stop": 3.2e-5, "points": 8}},
         "scan.start: interrogation_time 0.0 must be finite and exceed the "
         "half pulse windows"),
        ("fringe", {"scan": {"stop": 6.283185307179586}},
         "scan: grid spans 5.890 rad, below 1.5 fringe periods"),
        ("fringe", {"scan": {"points": 6}},
         "scan: 6 points cannot constrain 7 parameters"),
        # the default clouds, 6 hbar k apart, overlap at 5 us pulses
        ("gradiometer", {"sequence": {"pulse_sigma_s": 5.0e-6}},
         "gradiometer: cloud Bragg resonances overlap within the pulse Fourier "
         "width: separation*sigma = 2.84 < 4"),
    ], ids=["fringe-target", "revivals-target", "revivals-4-points",
            "gradiometer-target", "revivals-T-step",
            "gravity-run-bin-beyond-shots", "allan-3-shots", "gravity-run-4-bins",
            "gradiometer-sweep-rate", "gravity-run-sweep-rate",
            "allan-sweep-rate", "fringe-sweep-rate-scan",
            "revivals-T-within-pulses", "fringe-span-below-3pi",
            "fringe-6-points", "gradiometer-overlapping-clouds"])
    def test_rejected_before_calibration(self, tmp_path, monkeypatch, capsys,
                                         command, changes, message):
        # a warm lobe memo would hide a calibration, so start cold
        ladder._first_lobe.cache_clear()
        real, solves = ladder.solve_ivp, []
        monkeypatch.setattr(ladder, "solve_ivp",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        bad = yaml.safe_load(FAST_FRINGE)
        for block, values in changes.items():
            bad.setdefault(block, {}).update(values)
        cfg = write_config(tmp_path, yaml.safe_dump(bad))
        out = tmp_path / "x"
        assert main([command, cfg, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert solves == [] and not list(out.glob("*.csv"))

    def test_wrong_scan_target_for_subcommand(self, tmp_path):
        bad = yaml.safe_load(FAST_FRINGE)
        bad["scan"]["target"] = "interrogation_time"
        cfg = write_config(tmp_path, yaml.safe_dump(bad))
        assert main(["fringe", cfg, "--out-dir", str(tmp_path / "x")]) == 1

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # an error raised while the pipeline runs exits 2: here a strong,
        # short pulse drives norm out to the edge of a 4-site guard window
        text = """
pulse: {order: 1, sigma_s: 5.0e-6, rabi_peak_rad_s: 5000000.0}
evolution: {guard_sites: 4}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "x"
        assert main(["pulse", cfg, "--out-dir", str(out)]) == 2
        assert "TruncationLeakError" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_calibrate_subcommand(self, tmp_path):
        text = """
pulse:
  order: 1
  sigma_s: 200.0e-6
  transfer_target: 1.0
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "cal"
        assert main(["calibrate", cfg, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        om = summary["results"]["omega0_rad_s"]
        assert om == pytest.approx(
            math.pi / (200e-6 * math.sqrt(2 * math.pi)), rel=0.05)

    def test_class_oracle_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, "class_oracle:\n  time_points: 16\n")
        out = tmp_path / "co"
        assert main(["class-oracle", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "class_oracle.csv").read_text().splitlines()
        assert lines[0] == "interrogation_time_s,contrast_proxy"
        assert len(lines) == 17

    def test_allan_of_a_noise_free_run_has_no_slope(self, tmp_path):
        # no noise and no tide: every Allan value is 0, and a log-log slope
        # through them would be NaN, which the summary cannot hold
        text = """
seed: 7
sequence: {order: 2, interrogation_time_s: 2.0e-3, pulse_sigma_s: 5.0e-6}
ensemble: {samples: 2, sigma_q_hk: 0.42}
noise: {mirror_phase_rms_rad: 0.0, detection_snr: null}
tide: {components: []}
gravity_run: {shots: 64, bin_size: 8}
"""
        out = tmp_path / "allan"
        assert main(["allan", write_config(tmp_path, text), "--out-dir", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["points"] >= 3 and results["last_value"] == 0.0
        assert results["loglog_slope"] is None

    def test_gravity_run_reports_recovered_tide(self, tmp_path):
        text = """
seed: 5
sequence: {order: 2, interrogation_time_s: 20.0e-3, pulse_sigma_s: 15.0e-6}
ensemble: {samples: 4, sigma_q_hk: 0.42}
noise: {mirror_phase_rms_rad: 0.01, detection_snr: 100.0}
tide:
  mean_gravity_m_s2: 9.81
  components:
    - {amplitude_m_s2: 2.0e-6, period_h: 0.05, phase_rad: 0.0}
gravity_run: {shots: 600, shot_period_s: 1.0, bin_size: 38}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "grun"
        assert main(["gravity-run", cfg, "--out-dir", str(out)]) == 0
        assert (out / "gravity_series.csv").exists()
        assert (out / "gravity_binned.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        comps = summary["results"]["components"]
        assert len(comps) == 1
        rec = comps[0]["amplitude_recovered"]
        se = comps[0]["amplitude_stderr"]
        assert rec == pytest.approx(2.0e-6, abs=max(3 * se, 2e-7))
        assert summary["results"]["saturated_shots"] == 0

    def test_gravity_run_fits_the_tide_on_the_shift_from_g0(self, tmp_path,
                                                           monkeypatch):
        text = """
seed: 5
sequence: {order: 2, interrogation_time_s: 20.0e-3, pulse_sigma_s: 15.0e-6}
ensemble: {samples: 1, sigma_q_hk: 0.0}
noise: {mirror_phase_rms_rad: 0.01, detection_snr: 100.0}
tide:
  mean_gravity_m_s2: 9.81
  components:
    - {amplitude_m_s2: 2.0e-6, period_h: 0.05, phase_rad: 0.0}
gravity_run: {shots: 200, shot_period_s: 1.0, bin_size: 38}
"""
        fitted = []
        fit = cli.analysis.fit_harmonic_components

        def captured(t, values, *args, **kwargs):
            fitted.append(np.asarray(values))
            return fit(t, values, *args, **kwargs)

        monkeypatch.setattr(cli.analysis, "fit_harmonic_components", captured)
        out = tmp_path / "grun"
        assert main(["gravity-run", write_config(tmp_path, text),
                     "--out-dir", str(out)]) == 0
        assert len(fitted) == 1 and len(fitted[0]) == 5
        assert np.all(np.abs(fitted[0]) < 1e-3)
        means = [float(line.split(",")[1]) for line in
                 (out / "gravity_binned.csv").read_text().splitlines()[1:]]
        assert means == pytest.approx(9.81 + fitted[0], abs=1e-12)


class TestFitSummary:
    @pytest.mark.parametrize("offset, amplitude, clamped",
                             [(0.4, 0.5, True), (0.5, 0.4, False)])
    def test_contrast_clamp_reported(self, offset, amplitude, clamped):
        fit = HarmonicFit(offset=offset, amplitudes=(amplitude,), phases=(0.0,),
                          residual_rms=0.0)
        assert cli._fit_summary(fit)["contrast_clamped"] is clamped
