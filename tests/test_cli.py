import gc
import glob
import hashlib
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields

import numpy as np
import pytest

from fedspoof import cli, domain, federation, lstm, shards, simulate
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
        assert lstm.EARLY_STOP_PATIENCE == 20
        assert federation.GATE_THRESHOLD_DELTA == 0.02

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
                             ("train", "rng_seed"), ("sim", "profiles"),
                             # fixed values, held as module constants
                             ("features", "stride"), ("features", "cap_percentile"),
                             ("train", "validation_fraction"), ("train", "min_improvement"),
                             ("train", "clip_norm"), ("train", "lr_scale_min"),
                             ("train", "lr_scale_max"), ("federation", "gate_eval_max_windows"),
                             ("sim", "anchor_lat"), ("sim", "anchor_lon"),
                             ("sim", "attack_ramp_s"), ("sim", "cn0_uplift_db"),
                             ("sim", "signal_compression"), ("sim", "agc_shift_db")):
            path = _write_config(tmp_path, f"[{section}]\n{key} = 1\n")
            message = rf"unknown key \[{section}\] {key}"
            with pytest.raises(ConfigError, match=message):
                load_config(path)
            assert _run("generate", "--config", path, "--out", str(tmp_path / "o")) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("sim", "gnss_noise_m"), ("sim", "attack_fraction"), ("sim", "attack_dev_min_m"),
        ("sim", "attack_dev_max_m"), ("sim", "attack_step_prob"),
        ("train", "early_stop_patience"), ("federation", "gate_threshold_delta"),
    ])
    def test_retired_key_rejected(self, tmp_path, capsys, section, key):
        # values that no shipped run changed, now module constants
        path = _write_config(tmp_path, f"[{section}]\n{key} = 1\n")
        assert _run("generate", "--config", path, "--out", str(tmp_path / "o")) == 2
        assert f"unknown key [{section}] {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
            ("[experiment]\nsim = 1\n",
             r"key \[experiment\] sim cannot be set from a config file"),
            ("[sim]\nduration_s = inf\n", r"bad value for \[sim\] duration_s"),
            ("[train]\nbase_learning_rate = nan\n", r"bad value for \[train\] base_learning_rate"),
            ("[sim]\nattack_trace_prob = 1.5\n", r"invalid \[sim\] values: attack_trace_prob"),
            ("[sim]\nsample_rate_hz = 0\n", r"invalid \[sim\] values: .*sample_rate_hz"),
            ("[sim]\nduration_s = 0\n", r"invalid \[sim\] values: .*duration_s"),
            ("[sim]\nn_clients = 0\n", r"invalid \[sim\] values: .*client"),
            ("[federation]\nrounds = 0\n", r"invalid \[federation\] values: rounds"),
            ("[train]\nbase_learning_rate = -1\n",
             r"invalid \[train\] values: base_learning_rate"),
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
            ("[experiment]\nsplits = iid, iid\n",
             r"invalid \[experiment\] values: splits .* each once, got 'iid,iid'"),
            ("[experiment]\ncells = clfl,per_device,clfl\n",
             r"invalid \[experiment\] values: cells .* got 'clfl,per_device,clfl'"),
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

    @pytest.mark.parametrize("content", [
        pytest.param(b"[sim]\nn_traces = 8\nn_traces = 9\n", id="repeated-option"),
        pytest.param(b"n_traces = 8\n", id="no-section-header"),
        pytest.param(b"[sim]\nn_traces\n", id="line-without-equals"),
        pytest.param(b"[experiment]\nout_dir = out/100%\n", id="bad-interpolation"),
        pytest.param(b"[sim]\nn_traces = 8\xff\n", id="not-utf-8"),
    ])
    def test_unparsable_file_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "exp.ini"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot parse config file"):
            load_config(str(path))
        out = tmp_path / "o"
        assert _run("generate", "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot parse config file") and str(path) in err
        assert not out.exists()

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/exp.ini")

    def test_hash_pinned(self):
        # the manifest's config_hash of the default and the shipped configs
        for path, digest in ((None, "972d104aa46e4539"),
                             ("configs/quickstart.ini", "e7d46dbe8873f68e"),
                             ("configs/default-scenario.ini", "a5bca5addf3dd5a1"),
                             ("bench/matrix.ini", "f383d9b380550781")):
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

    def test_readme_lists_exactly_the_settable_keys(self, tmp_path):
        # both ways: every config field but a sub-configuration or a derived
        # seed is a README key, and every README key loads from a file
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", fh.read(), re.MULTILINE)
        listed = {(section, key): raw for section, row in rows
                  for key, raw in re.findall(r"`(\w+)` \(([^)]*)\)", row)}
        defaults = ExperimentConfig()
        keys = {("experiment", f.name) for f in fields(defaults) if f.name not in _SECTIONS}
        keys |= {(s, f.name) for s in _SECTIONS for f in fields(getattr(defaults, s))}
        assert set(listed) == keys - _DERIVED_SEEDS
        assert len(listed) == 22
        for (section, key), raw in listed.items():
            load_config(_write_config(tmp_path, f"[{section}]\n{key} = {raw}\n"))


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

    def test_train_scores_the_checkpoint_it_wrote(self, tmp_path, monkeypatch):
        # a checkpoint written as the all-zero model scores every window
        # alike, so train's AUC is that of the saved model, not of the trained one
        save = lstm.save_checkpoint

        def save_zeros(params, path):
            save(lstm.LstmModelParams(params.input_size, params.hidden_size,
                                      np.zeros_like(params.vector)), path)

        monkeypatch.setattr(lstm, "save_checkpoint", save_zeros)
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert _run("generate", "--config", config, "--out", str(out)) == 0
        for mode in ("federated", "centralized"):
            assert _run("train", "--mode", mode, "--config", config, "--out", str(out)) == 0
            header, row = (out / f"auc_{mode}.csv").read_text().splitlines()
            assert row.split(",")[:2] == [mode, "0.5"]

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

    def test_client_left_no_training_trace_is_data_error(self, tmp_path, capsys):
        # one trace per device: the device whose trace is held out has none to
        # train on; an iid split before it must not train or write either
        out = tmp_path / "one_each"
        for splits in ("trace", "iid, trace"):
            config = _write_config(tmp_path, MICRO_CONFIG
                                   .replace("seed = 11", "seed = 3")
                                   .replace("cells = clfl", "cells = per_device")
                                   .replace("splits = iid", f"splits = {splits}")
                                   .replace("n_traces = 8", "n_traces = 6")
                                   .replace("n_devices = 2", "n_devices = 6"))
            assert _run("generate", "--config", config, "--out", str(out)) == 0
            generated = sorted(os.listdir(out))
            assert _run("eval", "--config", config, "--out", str(out)) == 3, splits
            assert re.search(r"data error: the trace hold-out leaves client \d+ no training trace",
                             capsys.readouterr().err), splits
            assert sorted(os.listdir(out)) == generated, splits

    def test_client_too_small_to_validate_is_data_error(self, tmp_path, capsys):
        # 12-sample traces hold 3 windows of 10, too few for a validation tail
        config = _write_config(tmp_path, MICRO_CONFIG
                               .replace("n_traces = 8", "n_traces = 2")
                               .replace("duration_s = 60.0", "duration_s = 12.0")
                               .replace("window_len = 6", "window_len = 10"))
        out = tmp_path / "short"
        assert _run("generate", "--config", config, "--out", str(out)) == 0
        generated = sorted(os.listdir(out))
        for command in (("eval",), ("train", "--mode", "federated")):
            assert _run(*command, "--config", config, "--out", str(out)) == 3, command
            assert ("data error: client 1: dataset of 3 windows is smaller than the validation "
                    "split minimum" in capsys.readouterr().err), command
            assert sorted(os.listdir(out)) == generated, command

    def test_no_attack_corpus_fails_fast_single_class(self, tmp_path, capsys):
        config = _write_config(
            tmp_path, MICRO_CONFIG.replace("attack_trace_prob = 1.0", "attack_trace_prob = 0.0")
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
        assert not (out / "auc_table.csv").exists() and not (out / "plot_roc.gp").exists()

    def test_matrix_reads_each_family_from_the_data(self, tmp_path):
        # a corpus of six devices evaluated under a config that names two:
        # each device's family is the one its id gives it in the simulator
        six = _write_config(tmp_path, MICRO_CONFIG.replace(
            "n_traces = 8\nn_devices = 2", "n_traces = 12\nn_devices = 6"), name="six.ini")
        two = _write_config(tmp_path, MICRO_CONFIG.replace("cells = clfl", "cells = per_model"),
                            name="two.ini")
        out = tmp_path / "six_devices"
        assert _run("generate", "--config", six, "--out", str(out)) == 0
        traces = domain.read_dataset(str(out / "dataset.csv"))
        assert len({t.platform_id for t in traces}) == 6
        assert _run("eval", "--config", two, "--out", str(out)) == 0
        table = [line.split(",") for line in (out / "auc_table.csv").read_text().splitlines()[1:]]
        assert {row[0] for row in table} == {"per_model"}
        assert [row[3] for row in table] == sorted(
            {simulate.device_model(t.platform_id) for t in traces})

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
        # the run's BLAS thread count, recorded beside the config hash
        blas = f"openblas_num_threads={os.environ['OPENBLAS_NUM_THREADS']}\n"
        assert blas in manifest_a and blas in manifest_b


class TestCorpusLifetime:
    """No trace outlives client set-up: once the clients exist, every trace
    the dataset reader returned is garbage, before any model trains."""

    @pytest.mark.parametrize("command", [["eval"], ["train", "--mode", "federated"]])
    def test_no_trace_alive_at_first_training(self, tmp_path, monkeypatch, command):
        config = _write_config(tmp_path)
        out = str(tmp_path / "run")
        assert _run("generate", "--config", config, "--out", out) == 0
        real_read, real_train = domain.read_dataset, lstm.train_local
        refs, alive = [], []

        def read_dataset(path):
            traces = real_read(path)
            refs.extend(map(weakref.ref, traces))
            return traces

        def train_local(*args, **kwargs):
            if not alive:  # the first training
                gc.collect()
                alive.append(sum(ref() is not None for ref in refs))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(domain, "read_dataset", read_dataset)
        monkeypatch.setattr(lstm, "train_local", train_local)
        # one shard: every training runs in this process, where the traces were read
        monkeypatch.setattr(shards, "_shard_count", lambda n: 1)
        assert _run(*command, "--config", config, "--out", out) == 0
        assert len(refs) == 8 and alive == [0]


class TestBlasPin:
    BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _after_import(self, **user):
        """Each BLAS variable as `import fedspoof` leaves it in a fresh
        interpreter whose environment sets only `user` of them."""
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
        code = f"import os, fedspoof; print(*(os.environ.get(k) for k in {self.BLAS!r}))"
        out = subprocess.run([sys.executable, "-c", code], env={**env, **user},
                             capture_output=True, text=True, check=True)
        return out.stdout.split()

    def test_import_pins_one_thread(self):
        assert self._after_import() == ["1", "1", "1"]

    def test_user_value_kept(self):
        assert self._after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


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

    def test_single_client_federated_matches_centralized(self, tmp_path, monkeypatch):
        # every attack steps at once to 250-400 m
        monkeypatch.setattr(simulate, "ATTACK_STEP_PROB", 1.0)
        monkeypatch.setattr(simulate, "ATTACK_DEV_MIN_M", 250.0)
        monkeypatch.setattr(simulate, "ATTACK_DEV_MAX_M", 400.0)
        config = _write_config(tmp_path, self.SOLO_CONFIG)
        out = str(tmp_path / "solo")
        assert _run("generate", "--config", config, "--out", out) == 0
        assert _run("train", "--mode", "federated", "--config", config, "--out", out) == 0
        assert _run("train", "--mode", "centralized", "--config", config, "--out", out) == 0

        def read_auc(name):
            line = (tmp_path / "solo" / name).read_text().splitlines()[1]
            return float(line.split(",")[1])

        assert abs(read_auc("auc_federated.csv") - read_auc("auc_centralized.csv")) <= 0.01
