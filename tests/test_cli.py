import glob
import hashlib
import os
import re
from dataclasses import fields

import pytest

from fedspoof import cli, domain
from fedspoof.config import (
    _DERIVED_SEEDS, _FIELD_TYPES, _SECTIONS, ConfigError, ExperimentConfig, _coerce, config_hash,
    load_config,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MICRO_CONFIG = """\
[experiment]
seed = 11
cells = clfl
splits = iid

[sim]
n_traces = 8
n_devices = 2
n_clients = 2
duration_s = 60.0
attack_trace_prob = 1.0

[features]
window_len = 6

[train]
batch_size = 24
base_learning_rate = 0.002

[federation]
rounds = 2
local_epochs = 1
gate_enabled = false
"""


def _write_config(tmp_path, text=MICRO_CONFIG, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(*argv):
    return cli.main(list(argv))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 7
        assert cfg.sim.n_traces == 40
        assert cfg.train.batch_size == 72
        assert cfg.train.early_stop_patience == 20
        assert cfg.federation.gate_threshold_delta == 0.02

    def test_file_values_applied(self, tmp_path):
        cfg = load_config(_write_config(tmp_path))
        assert cfg.seed == 11
        assert cfg.sim.n_traces == 8
        assert cfg.federation.rounds == 2
        assert cfg.federation.gate_enabled is False
        assert cfg.cells == ("clfl",)

    def test_seed_propagates_to_stages(self, tmp_path):
        cfg = load_config(_write_config(tmp_path))
        assert cfg.sim.rng_seed == 11
        assert cfg.federation.init_seed == 11

    def test_overrides_beat_file(self, tmp_path):
        cfg = load_config(_write_config(tmp_path), {"seed": 99})
        assert cfg.seed == 99
        assert cfg.sim.rng_seed == 99

    def test_unknown_key_rejected(self, tmp_path, capsys):
        for section, key in (("sim", "warp_drive"), ("federation", "checkpoint_every"),
                             ("federation", "checkpoint_dir"), ("federation", "weighted"),
                             ("features", "valid_ranges"), ("train", "max_epochs"),
                             ("train", "rng_seed")):
            path = _write_config(tmp_path, f"[{section}]\n{key} = 1\n")
            message = rf"unknown key \[{section}\] {key}"
            with pytest.raises(ConfigError, match=message):
                load_config(path)
            assert _run("generate", "--config", path, "--out", str(tmp_path / "o")) == 2
            assert key in capsys.readouterr().err

    def test_shipped_configs_load(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini")))
        paths.append(os.path.join(ROOT, "bench", "matrix.ini"))
        assert len(paths) >= 3
        for path in paths:
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[quantum]\nx = 1\n")
        with pytest.raises(ConfigError, match="quantum"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path, capsys):
        for text, message in (
            ("[sim]\nn_traces = many\n", r"bad value for \[sim\] n_traces"),
            ("[federation]\ngate_enabled = maybe\n", r"bad value for \[federation\] gate_enabled"),
            ("[sim]\nprofiles = 1\n",
             r"key \[sim\] profiles cannot be set from a config file"),
            ("[experiment]\nsim = 1\n",
             r"key \[experiment\] sim cannot be set from a config file"),
            ("[sim]\nduration_s = inf\n", r"bad value for \[sim\] duration_s"),
            ("[train]\nbase_learning_rate = nan\n", r"bad value for \[train\] base_learning_rate"),
            ("[sim]\nattack_trace_prob = 1.5\n", r"invalid \[sim\] values: attack_trace_prob"),
            ("[sim]\nsignal_compression = 2\n", r"invalid \[sim\] values: signal_compression"),
            ("[sim]\nsample_rate_hz = 0\n", r"invalid \[sim\] values: .*sample_rate_hz"),
            ("[sim]\nduration_s = 0\n", r"invalid \[sim\] values: .*duration_s"),
            ("[sim]\ngnss_noise_m = -1\n", r"invalid \[sim\] values: .*gnss_noise_m"),
            ("[sim]\nattack_dev_min_m = 300\n", r"invalid \[sim\] values: .*attack_dev_min_m"),
            ("[sim]\nn_clients = 0\n", r"invalid \[sim\] values: .*client"),
            ("[features]\ncap_percentile = 150\n",
             r"invalid \[features\] values: cap_percentile"),
            ("[federation]\nrounds = 0\n", r"invalid \[federation\] values: rounds"),
            ("[federation]\ngate_eval_max_windows = -1\n",
             r"invalid \[federation\] values: gate_eval_max_windows"),
            ("[train]\nbase_learning_rate = -1\n",
             r"invalid \[train\] values: base_learning_rate"),
            ("[train]\nlr_scale_max = -1\n", r"invalid \[train\] values: .*lr_scale_max"),
            ("[sim]\npartition_mode = non-iid-by-device\nn_devices = 2\nn_clients = 3\n",
             r"invalid \[sim\] values: non-iid-by-device needs n_clients == n_devices"),
            ("[sim]\nn_traces = 4\nn_clients = 6\n",
             r"invalid \[sim\] values: n_traces \(4\) < n_clients \(6\)"),
            ("[sim]\nduration_s = 60\n[features]\nwindow_len = 61\n",
             r"invalid \[features\] values: window_len \(61\) > samples per trace \(60\)"),
            ("[experiment]\nseed = -3\n", r"invalid \[experiment\] values: seed must be >= 0"),
            ("[experiment]\ncells =\n", r"invalid \[experiment\] values: cells .* got ''"),
            ("[experiment]\ncells = clfl,warp\n",
             r"invalid \[experiment\] values: cells .* got 'clfl,warp'"),
            ("[experiment]\nsplits = ,\n", r"invalid \[experiment\] values: splits"),
        ):
            path = _write_config(tmp_path, text)
            with pytest.raises(ConfigError, match=message):
                load_config(path)
            assert _run("generate", "--config", path, "--out", str(tmp_path / "o")) == 2
        # the same check holds for a flag value
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            load_config(None, {"seed": -1})
        path = _write_config(tmp_path)
        assert _run("generate", "--config", path, "--seed", "-1", "--out", str(tmp_path / "o")) == 2
        assert "seed" in capsys.readouterr().err

    def test_per_stage_seeds_rejected(self, tmp_path):
        # [experiment] seed drives every stage; a per-stage seed in a file
        # would be overwritten, so it is refused instead
        for section, key in (("sim", "rng_seed"), ("federation", "init_seed")):
            path = _write_config(tmp_path, f"[{section}]\n{key} = 3\n")
            with pytest.raises(ConfigError, match=r"\[experiment\] seed"):
                load_config(path)
            assert _run("generate", "--config", path, "--out", str(tmp_path / "o")) == 2

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/exp.ini")

    def test_hash_pinned(self):
        # the manifest's config_hash of the default and the shipped configs
        for path, digest in ((None, "a0f91e08090de9ec"),
                             ("configs/quickstart.ini", "af821fb9d88803c9"),
                             ("configs/default-scenario.ini", "60e4729e9fb140b3"),
                             ("bench/matrix.ini", "5e7ad7fa91249b22")):
            cfg = load_config(path and os.path.join(ROOT, path))
            assert config_hash(cfg) == digest, path

    def test_hash_stable_and_sensitive(self, tmp_path):
        cfg_a = load_config(_write_config(tmp_path))
        cfg_b = load_config(_write_config(tmp_path))
        assert config_hash(cfg_a) == config_hash(cfg_b)
        cfg_c = load_config(_write_config(tmp_path), {"seed": 12})
        assert config_hash(cfg_a) != config_hash(cfg_c)

    def test_readme_lists_every_key_with_its_default(self):
        # each row of README's Configuration table: `key` (default), ...
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", fh.read(), re.MULTILINE))
        defaults = ExperimentConfig()
        assert set(rows) == {"experiment", *_SECTIONS}
        for section, row in rows.items():
            obj = defaults if section == "experiment" else getattr(defaults, section)
            settable = {f.name: _FIELD_TYPES[f.type] for f in fields(obj)
                        if f.type in _FIELD_TYPES and (section, f.name) not in _DERIVED_SEEDS}
            listed = dict(re.findall(r"`(\w+)` \(([^)]*)\)", row))
            assert listed.keys() == settable.keys(), section
            for key, raw in listed.items():
                assert _coerce(raw, settable[key], key) == getattr(obj, key), (section, key)


class TestCliFlows:
    def test_generate_then_train_then_eval(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = str(tmp_path / "run")
        assert _run("generate", "--config", config, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "dataset.csv"))

        assert _run("train", "--mode", "pds-baseline", "--config", config, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "auc_pds.csv"))
        assert os.path.exists(os.path.join(out, "roc_pds.csv"))

        assert _run("train", "--mode", "federated", "--config", config, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "model_federated.ckpt"))
        assert os.path.exists(os.path.join(out, "metrics_federated.csv"))

        assert _run("eval", "--config", config, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "auc_table.csv"))
        assert os.path.exists(os.path.join(out, "plot_roc.gp"))

        # `train --mode M` and the matrix's clfl row M are one comparison
        run = tmp_path / "run"
        table = {}
        for line in (run / "auc_table.csv").read_text().splitlines()[1:]:
            cell, split, method, _, auc, n_pos, n_neg = line.split(",")
            table[cell, split, method] = [auc, n_pos, n_neg]
        for tag in ("pds", "federated"):
            roc = (run / f"roc_{tag}.csv").read_bytes()
            assert roc == (run / f"roc_clfl_iid_{tag}.csv").read_bytes(), tag
            header, row = (run / f"auc_{tag}.csv").read_text().splitlines()
            assert header == "method,auc,n_pos,n_neg"
            assert row.split(",") == [tag, *table["clfl", "iid", tag]]

        assert _run("report", "--out", out) == 0
        assert "auc" in capsys.readouterr().out

    def test_generate_writes_pinned_corpus(self, tmp_path):
        # sha256 of the quick start's dataset.csv: the corpus, its trace order
        # and every value's text do not depend on the code's layout or W
        for seed, digest in (
            (1, "5626c201c117def0480cee73e090db702f0088a7ecd33d1c0f354a38d2bfcdbb"),
            (7, "502b24aa30c141af935e782090a3ac3ba65e56c1083c7da78b35cf56354ee0fe"),
        ):
            out = tmp_path / f"seed{seed}"
            config = os.path.join(ROOT, "configs", "quickstart.ini")
            assert _run("generate", "--config", config, "--seed", str(seed), "--out", str(out)) == 0
            data = (out / "dataset.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, seed

    def test_missing_dataset_is_data_error(self, tmp_path):
        config = _write_config(tmp_path)
        out = str(tmp_path / "empty")
        assert _run("train", "--mode", "federated", "--config", config, "--out", out) == 3

    def test_dataset_too_small_to_partition_is_data_error(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        by_device = _write_config(tmp_path, MICRO_CONFIG.replace(
            "[sim]\n", "[sim]\npartition_mode = non-iid-by-device\n"), name="device.ini")
        full = tmp_path / "full"
        assert _run("generate", "--config", config, "--out", str(full)) == 0
        traces = domain.read_dataset(str(full / "dataset.csv"))
        one_device = [t for t in traces if t.platform_id == traces[0].platform_id]
        train = [("train", "--mode", mode) for mode in ("federated", "pds-baseline")]
        cases = (
            ([], config, [*train, ("eval",)], "no traces to partition"),
            (traces[:1], config, [*train, ("eval",)], "fewer traces than clients"),
            (one_device, by_device, train, "device partition needs n_clients == n_devices (1)"),
        )
        for k, (subset, path, commands, message) in enumerate(cases):
            out = tmp_path / f"case{k}"
            out.mkdir()
            domain.write_dataset(subset, str(out / "dataset.csv"))
            for command in commands:
                assert _run(*command, "--config", path, "--out", str(out)) == 3, command
                assert f"data error: {message}" in capsys.readouterr().err, command
                assert os.listdir(out) == ["dataset.csv"], command

    def test_no_attack_corpus_fails_fast_single_class(self, tmp_path, capsys):
        config = _write_config(
            tmp_path, MICRO_CONFIG.replace("attack_trace_prob = 1.0", "attack_fraction = 0.0")
        )
        out = tmp_path / "clean"
        assert _run("generate", "--config", config, "--out", str(out)) == 0
        generated = sorted(os.listdir(out))
        # the truth is checked before anything is trained or written
        for mode in ("pds-baseline", "federated", "centralized"):
            assert _run("train", "--mode", mode, "--config", config, "--out", str(out)) == 3
            assert "single" in capsys.readouterr().err.lower()
            assert sorted(os.listdir(out)) == generated, mode
            assert "command=generate\n" in (out / "manifest.txt").read_text()
        assert _run("eval", "--config", config, "--out", str(out)) == 3

    def test_empty_matrix_is_data_error(self, tmp_path, capsys):
        # one device family: cross_model has no other family to test on
        config = _write_config(tmp_path, MICRO_CONFIG.replace("cells = clfl", "cells = cross_model")
                               .replace("n_traces = 8\nn_devices = 2\nn_clients = 2",
                                        "n_traces = 4\nn_devices = 1\nn_clients = 1"))
        out = tmp_path / "one_family"
        assert _run("generate", "--config", config, "--out", str(out)) == 0
        manifest = (out / "manifest.txt").read_text()
        assert _run("eval", "--config", config, "--out", str(out)) == 3
        assert ("data error: the matrix has no row for cells = cross_model and splits = iid"
                in capsys.readouterr().err)
        assert (out / "manifest.txt").read_text() == manifest

    def test_unknown_mode_is_usage_error(self, tmp_path):
        config = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run("train", "--mode", "quantum", "--config", config)
        assert exc.value.code == 2

    def test_bad_config_key_exit_code(self, tmp_path):
        path = _write_config(tmp_path, "[sim]\nbogus = 1\n")
        assert _run("generate", "--config", path) == 2

    def test_out_root_env_override(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path)
        monkeypatch.setenv("FEDSPOOF_OUT_ROOT", str(tmp_path / "root"))
        assert _run("generate", "--config", config) == 0
        assert os.path.exists(tmp_path / "root" / "out" / "dataset.csv")

    def test_seed_flag_changes_manifest(self, tmp_path):
        config = _write_config(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert _run("generate", "--config", config, "--out", out_a) == 0
        assert _run("generate", "--config", config, "--out", out_b, "--seed", "123") == 0
        manifest_a = (tmp_path / "a" / "manifest.txt").read_text()
        manifest_b = (tmp_path / "b" / "manifest.txt").read_text()
        assert "seed=11" in manifest_a
        assert "seed=123" in manifest_b
        assert manifest_a != manifest_b


@pytest.mark.slow
class TestPipelineProperties:
    def test_repeat_runs_byte_identical(self, tmp_path):
        config = _write_config(tmp_path)
        outputs = {}
        for name in ("one", "two"):
            out = str(tmp_path / name)
            assert _run("generate", "--config", config, "--out", out) == 0
            assert _run("train", "--mode", "federated", "--config", config, "--out", out) == 0
            assert _run("eval", "--config", config, "--out", out) == 0
            outputs[name] = {
                f: (tmp_path / name / f).read_bytes()
                for f in ("dataset.csv", "metrics_federated.csv", "auc_federated.csv",
                          "auc_table.csv", "manifest.txt")
            }
        assert outputs["one"] == outputs["two"]

    SOLO_CONFIG = """\
[experiment]
seed = 11

[sim]
n_traces = 10
n_devices = 2
n_clients = 1
duration_s = 90.0
attack_trace_prob = 1.0
attack_step_prob = 1.0
attack_dev_min_m = 250.0
attack_dev_max_m = 400.0

[features]
window_len = 6

[train]
batch_size = 24
base_learning_rate = 0.003

[federation]
rounds = 5
local_epochs = 4
gate_enabled = false
"""

    def test_single_client_federated_matches_centralized(self, tmp_path):
        config = _write_config(tmp_path, self.SOLO_CONFIG)
        out = str(tmp_path / "solo")
        assert _run("generate", "--config", config, "--out", out) == 0
        assert _run("train", "--mode", "federated", "--config", config, "--out", out) == 0
        assert _run("train", "--mode", "centralized", "--config", config, "--out", out) == 0

        def read_auc(name):
            line = (tmp_path / "solo" / name).read_text().splitlines()[1]
            return float(line.split(",")[1])

        assert abs(read_auc("auc_federated.csv") - read_auc("auc_centralized.csv")) <= 0.01
