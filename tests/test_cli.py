"""End-to-end command line flows on the smallest configuration."""

import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridcast import autodiff as ad
from gridcast import cli, training
from gridcast.cli import main
from gridcast.errors import NumericsError
from gridcast.model import (available_sources, config_from_dict, decode, encode,
                            encode_sources, init_model_params, load_config,
                            save_config, tiny_config)
from gridcast.rollout import greedy_plan, rollout
from gridcast.serialization import (dump_params, load_params, load_params_file,
                                    save_params_file)
from gridcast.synthdata import load_dataset_file
from gridcast.training import add_source_encoders

SRC = Path(cli.__file__).resolve().parents[1]

WAVELEN = "12000"  # resolvable on the 24-column test grid


@pytest.fixture()
def spec_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    save_config(p, tiny_config())
    return str(p)


@pytest.fixture()
def data_file(tmp_path, spec_file):
    out = str(tmp_path / "data.wmd3")
    rc = main(["gen-data", "--spec", spec_file, "--hours", "18",
               "--seed", "3", "--sources", "2", "--out", out])
    assert rc == 0
    return out


def train_small(tmp_path, spec_file, data_file, steps=3):
    out = str(tmp_path / "run")
    rc = main(["train", "--config", spec_file, "--data", data_file,
               "--stage", "pretrain", "--steps", str(steps), "--seed", "1",
               "--out", out, "--lr-max", "1e-3"])
    assert rc == 0
    return out


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, spec_file, data_file):
        ds = load_dataset_file(data_file)
        assert ds.n_times == 19
        assert ds.n_sources == 2
        man = json.loads((tmp_path / "data.wmd3.manifest.json").read_text())
        assert man["command"][0] == "gridcast"
        assert man["seed"] == 3
        assert man["outputs"] == [data_file]
        assert "numpy" in man["versions"] and "gridcast" in man["versions"]
        assert man["wall_time_s"] >= 0
        assert man["config"]["rows"] == 24

    def test_missing_spec_is_io_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--spec", str(tmp_path / "nope.cfg"),
                   "--hours", "4", "--out", str(tmp_path / "d.wmd3")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: io: ")
        assert "\n" not in err

    def test_unknown_flag_is_usage_error(self, tmp_path, spec_file, capsys):
        rc = main(["gen-data", "--spec", spec_file, "--hours", "4",
                   "--out", str(tmp_path / "d.wmd3"), "--frobnicate"])
        assert rc == 2

    def test_bad_config_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("rows = 24\n")
        rc = main(["gen-data", "--spec", str(bad), "--hours", "4",
                   "--out", str(tmp_path / "d.wmd3")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: ")


    def test_binary_config_is_config_error(self, tmp_path, spec_file, capsys):
        bad = tmp_path / "binary.cfg"
        bad.write_bytes(Path(spec_file).read_bytes()[:128] + b"\x80\xff\n")
        rc = main(["gen-data", "--spec", str(bad), "--hours", "4",
                   "--out", str(tmp_path / "d.wmd3")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and str(bad) in err, err

    @pytest.mark.parametrize("exc, category", [
        (KeyError("proc6.blk1.mlp.w2"), "internal"), (ZeroDivisionError("x"), "internal"),
        (RuntimeError("x"), "internal"), (NumericsError("loss is not finite"), "compute"),
    ])
    def test_only_numerics_errors_are_compute(self, capsys, monkeypatch, exc, category):
        def fail(args, argv):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "verify", fail)
        assert main(["verify"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {category}: ")


class TestTrain:
    def test_artifacts(self, tmp_path, spec_file, data_file):
        out = train_small(tmp_path, spec_file, data_file)
        with open(out + "/train_log.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "lr", "loss", "dts", "grad_norm", "step_s"]
        assert len(rows) == 4
        params = load_params_file(out + "/params_final.lmtw")
        assert any(k.startswith("enc.") for k in params)
        man = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert any(p.endswith("params_final.lmtw") for p in man["outputs"])

    def test_corrupt_data_category(self, tmp_path, spec_file, capsys):
        bad = tmp_path / "bad.wmd3"
        bad.write_bytes(b"WMD3" + b"\x00" * 10)
        rc = main(["train", "--config", spec_file, "--data", str(bad),
                   "--stage", "pretrain", "--steps", "1",
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: data: ")


    @pytest.mark.parametrize("flag", ["--lr-max=nan", "--lr-max=inf", "--lr-max=0",
                                      "--lr-max=-0.001", "--checkpoint-every=-1"])
    def test_bad_numeric_flag_is_config_error(self, tmp_path, spec_file, data_file, capsys,
                                              flag):
        out = tmp_path / "r"
        rc = main(["train", "--config", spec_file, "--data", data_file,
                   "--stage", "pretrain", "--steps", "1", "--out", str(out), flag])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not (out / "train_log.csv").exists()  # raised before any step
        assert not (out / "params_final.lmtw").exists()


class TestForecastEvaluate:
    def test_forecast_evaluate_scorecard(self, tmp_path, spec_file, data_file):
        run = train_small(tmp_path, spec_file, data_file)
        fc = str(tmp_path / "fc.lmtw")
        rc = main(["forecast", "--config", spec_file,
                   "--params", run + "/params_final.lmtw",
                   "--init", data_file, "--init-hour", "0",
                   "--dt", "12", "--out", fc])
        assert rc == 0
        blobs = load_params_file(fc)
        assert blobs["surface"].shape == (3, 24, 24)
        assert blobs["atmos"].shape == (2, 4, 24, 24)
        assert int(blobs["valid_time"]) == 12

        ev = str(tmp_path / "eval.json")
        rc = main(["evaluate", "--forecast", fc, "--truth", data_file,
                   "--wavelength-km", WAVELEN, "--out", ev])
        assert rc == 0
        doc = json.loads(open(ev).read())
        assert doc["valid_time"] == 12
        assert len(doc["rmse"]) == 3 + 8
        assert all(v >= 0 for v in doc["rmse"].values())

        rc = main(["scorecard", "--a", ev, "--b", ev,
                   "--out", str(tmp_path / "sc.json")])
        assert rc == 0
        sc = json.loads((tmp_path / "sc.json").read_text())
        assert all(v == 0.0 for v in sc["percent_vs_baseline"].values())

    @pytest.mark.parametrize("valid_time", [np.zeros(2), np.float64(np.nan),
                                            np.float64(1.5)],
                             ids=["array", "nan", "fraction"])
    def test_bad_valid_time_is_data_error(self, tmp_path, data_file, capsys,
                                          valid_time):
        fc = str(tmp_path / "fc.lmtw")
        save_params_file(fc, {"surface": np.zeros((3, 24, 24)),
                              "atmos": np.zeros((2, 4, 24, 24)),
                              "valid_time": valid_time})
        rc = main(["evaluate", "--forecast", fc, "--truth", data_file,
                   "--wavelength-km", WAVELEN, "--out", str(tmp_path / "e.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: data: ")

    @pytest.mark.parametrize("field, bad", [("surface", np.nan), ("atmos", np.inf)])
    def test_non_finite_forecast_field_is_data_error(self, tmp_path, data_file, capsys,
                                                     field, bad):
        blobs = {"surface": np.zeros((3, 24, 24)), "atmos": np.zeros((2, 4, 24, 24)),
                 "valid_time": np.float64(6)}
        blobs[field][...] = bad
        fc, ev = str(tmp_path / "fc.lmtw"), tmp_path / "e.json"
        save_params_file(fc, blobs)
        rc = main(["evaluate", "--forecast", fc, "--truth", data_file,
                   "--wavelength-km", WAVELEN, "--out", str(ev)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and repr(field) in err, err
        assert not ev.exists()

    @pytest.mark.parametrize("doc", [
        {"rmse": {"sfc0": "x"}}, {"rmse": {}}, {"rmse": {"sfc0": float("nan")}},
        {"rmse": {"sfc0": True}}, {"rmse": [1.0]}, [1.0], b'{"rmse": {"sfc0": 1.0}}\x80\xff',
    ], ids=["string", "empty", "nan", "bool", "list", "not-a-report", "binary"])
    def test_bad_scorecard_report_is_data_error(self, tmp_path, capsys, doc):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"rmse": {"sfc0": 1.0}}))
        if isinstance(doc, bytes):
            bad.write_bytes(doc)
        else:
            bad.write_text(json.dumps(doc))
        for a, b in ((bad, good), (good, bad), (bad, bad)):
            rc = main(["scorecard", "--a", str(a), "--b", str(b)])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: data: ")

    def test_non_finite_parameter_is_data_error(self, tmp_path, spec_file, data_file,
                                                capsys):
        blobs = {k: v.values.copy()
                 for k, v in init_model_params(tiny_config(), seed=4).items()}
        blobs["dec.head_sfc.b"][1] = np.nan
        params, out = str(tmp_path / "nan.lmtw"), tmp_path / "fc.lmtw"
        save_params_file(params, blobs)
        rc = main(["forecast", "--config", spec_file, "--params", params,
                   "--init", data_file, "--init-hour", "0", "--dt", "6",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "dec.head_sfc.b" in err, err
        assert not out.exists()

    def test_loaded_parameters_are_aligned_and_own_their_memory(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "p.lmtw"
        save_params_file(path, {k: v.values for k, v in init_model_params(cfg, seed=4).items()})
        assert not all(a.flags.aligned for a in load_params_file(path).values())  # file views
        for name, tensor in cli._load_params_tensors(path, cfg).items():
            a = tensor.values
            assert a.flags.aligned and a.flags.owndata and a.base is None, name

    @pytest.mark.parametrize("name, shape, named", [
        ("proc6.blk1.mlp.w2", None, "proc6.blk1.mlp.w2"),
        ("enc.stem_sfc.b", None, "enc.stem_sfc.b"),
        ("proc6.blk0.attn.wq", (3, 3), "proc6.blk0.attn.wq"),
        ("dec.head_atm.w", (8, 16, 3, 3), "dec.head_atm.w"),
        ("proc6.blk9.attn.wq", (12, 12), "proc6.blk9.attn.wq"),
        # one tensor of an extra encoder: the first of its missing ones is named
        ("enc_op.op1.stem_sfc.w", (16, 10, 3, 3), "enc_op.op1.blk0.attn.bk"),
    ], ids=["missing-proc", "missing-enc", "reshaped-wq", "reshaped-head", "unknown",
            "encoder-part"])
    def test_params_not_matching_the_model_are_data_error(self, tmp_path, spec_file, data_file,
                                                          capsys, name, shape, named):
        blobs = {k: v.values for k, v in init_model_params(tiny_config(), seed=4).items()}
        if shape is None:
            del blobs[name]
        else:
            blobs[name] = np.zeros(shape)
        params, out = str(tmp_path / "bad.lmtw"), tmp_path / "fc.lmtw"
        save_params_file(params, blobs)
        for cmd in (["forecast", "--init", data_file, "--dt", "6", "--out", str(out)],
                    ["train", "--data", data_file, "--stage", "pretrain", "--steps", "1",
                     "--out", str(tmp_path / "run")]):
            rc = main(cmd + ["--config", spec_file, "--params", params])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: data: ") and named in err, err
        assert not out.exists() and not (tmp_path / "run" / "train_log.csv").exists()

    @pytest.mark.parametrize("logits", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]],
                             ids=["short", "long", "2-d"])
    def test_blend_logits_not_one_per_encoder_are_data_error(self, tmp_path, spec_file,
                                                             data_file, capsys, logits):
        params, out = two_source_params(tmp_path, logits), str(tmp_path / "fc.lmtw")
        rc = main(["forecast", "--config", spec_file, "--params", params, "--init",
                   data_file, "--dt", "6", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "blend.logits" in err, err

    def test_wholly_absent_processor_keeps_its_error(self, tmp_path, spec_file, data_file,
                                                     capsys):
        blobs = {k: v.values for k, v in init_model_params(tiny_config(), seed=4).items()
                 if not k.startswith("proc1.")}
        params = str(tmp_path / "six.lmtw")
        save_params_file(params, blobs)
        base = ["forecast", "--config", spec_file, "--params", params, "--init", data_file]
        assert main(base + ["--dt", "6", "--out", str(tmp_path / "a.lmtw")]) == 0
        assert main(base + ["--dt", "7", "--out", str(tmp_path / "b.lmtw")]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "error: config: parameters carry no 1 h processor, required by the plan"

    def test_zero_baseline_scorecard_is_data_error(self, tmp_path, capsys):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "sc.json"
        a.write_text(json.dumps({"rmse": {"sfc0": 1.0, "sfc1": 2.0}}))
        b.write_text(json.dumps({"rmse": {"sfc0": 0.0, "sfc1": 1.0}}))
        rc = main(["scorecard", "--a", str(a), "--b", str(b), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "'sfc0'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("name, stage", [
        ("enc.blk0.mlp.w2", "forecast: latent after encode"),
        ("proc6.blk0.mlp.w2", "rollout: latent after step 1 of 3 (6 h)"),
        ("dec.head_sfc.w", "forecast: fields after decode"),
    ])
    def test_non_finite_forecast_is_compute_error(self, tmp_path, spec_file, data_file,
                                                  capsys, name, stage):
        # finite weights whose sums overflow: the forecast fails at the named stage
        blobs = {k: v.values.copy()
                 for k, v in init_model_params(tiny_config(), seed=4).items()}
        blobs[name][...] = 1e308
        params, out = str(tmp_path / "huge.lmtw"), tmp_path / "fc.lmtw"
        save_params_file(params, blobs)
        rc = main(["forecast", "--config", spec_file, "--params", params,
                   "--init", data_file, "--init-hour", "0", "--dt", "13",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: compute: ") and stage in err, err
        assert not out.exists()

    def test_numeric_failure_prints_one_error_line(self, tmp_path, spec_file, data_file):
        # a fresh interpreter with numpy's default error state and warnings shown
        blobs = {k: v.values.copy()
                 for k, v in init_model_params(tiny_config(), seed=4).items()}
        blobs["proc6.blk0.mlp.w1"][...] = 1e308
        params = str(tmp_path / "huge.lmtw")
        save_params_file(params, blobs)
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONWARNINGS="default")
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from gridcast.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "forecast", "--config", spec_file,
             "--params", params, "--init", data_file, "--dt", "6",
             "--out", str(tmp_path / "fc.lmtw")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith("error: compute: rollout: latent after step 1"), done.stderr

    def test_offload_flag_matches_plain(self, tmp_path, spec_file, data_file):
        run = train_small(tmp_path, spec_file, data_file)
        a = str(tmp_path / "a.lmtw")
        b = str(tmp_path / "b.lmtw")
        base = ["forecast", "--config", spec_file,
                "--params", run + "/params_final.lmtw", "--init", data_file,
                "--init-hour", "0", "--dt", "13"]
        assert main(base + ["--out", a]) == 0
        assert main(base + ["--out", b, "--offload"]) == 0
        fa, fb = load_params_file(a), load_params_file(b)
        assert fa["surface"].tobytes() == fb["surface"].tobytes()
        assert fa["atmos"].tobytes() == fb["atmos"].tobytes()

    def test_dt_beyond_cap_is_config_error(self, tmp_path, spec_file,
                                           data_file, capsys):
        run = train_small(tmp_path, spec_file, data_file)
        rc = main(["forecast", "--config", spec_file,
                   "--params", run + "/params_final.lmtw", "--init", data_file,
                   "--dt", "999", "--out", str(tmp_path / "x.lmtw")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_unknown_source_rejected(self, tmp_path, spec_file, data_file,
                                     capsys):
        run = train_small(tmp_path, spec_file, data_file)
        rc = main(["forecast", "--config", spec_file,
                   "--params", run + "/params_final.lmtw", "--init", data_file,
                   "--dt", "6", "--source", "op9",
                   "--out", str(tmp_path / "x.lmtw")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: ")


def two_source_params(tmp_path, logits):
    params = init_model_params(tiny_config(), seed=4)
    add_source_encoders(params, tiny_config(), ["op1"], seed=4)
    path = str(tmp_path / "two.lmtw")
    blobs = {k: v.values for k, v in params.items()}
    blobs["blend.logits"] = np.array(logits, dtype=np.float64)
    save_params_file(path, blobs)
    return path


class TestOneHourRead:
    """forecast and evaluate keep one hour of the WMD3 file; results match the full load."""

    HOUR_BYTES = (3 + 8 + 2 * (2 + 8)) * 24 * 24 * 4  # truth and two sources

    @pytest.fixture()
    def params(self, tmp_path):
        path = str(tmp_path / "p.lmtw")
        save_params_file(path, {k: v.values
                                for k, v in init_model_params(tiny_config(), seed=4).items()})
        return path

    def forecast(self, spec_file, params, data, out, *extra):
        return main(["forecast", "--config", spec_file, "--params", params,
                     "--init", data, "--out", out, *extra])

    @pytest.mark.parametrize("extra", [("--dt", "0"), ("--init-hour", "5", "--dt", "7")],
                             ids=["last-hour", "init-hour"])
    def test_forecast_and_report_match_the_full_load(self, tmp_path, spec_file, data_file,
                                                     params, monkeypatch, extra):
        def run(tag):
            fc, ev = str(tmp_path / f"{tag}.lmtw"), tmp_path / f"{tag}.json"
            assert self.forecast(spec_file, params, data_file, fc, *extra) == 0
            assert main(["evaluate", "--forecast", fc, "--truth", data_file,
                         "--wavelength-km", WAVELEN, "--out", str(ev)]) == 0
            return Path(fc).read_bytes(), ev.read_text()

        streamed = run("streamed")
        monkeypatch.setattr(cli, "load_dataset_file",
                            lambda path, hours=None: load_dataset_file(path))
        assert run("full") == streamed

    @pytest.mark.parametrize("hour, offset", [(0, 0), (2, 40), (5, 9000), (18, HOUR_BYTES - 4)])
    def test_non_finite_hour_anywhere_is_data_error(self, tmp_path, spec_file, data_file,
                                                    params, capsys, hour, offset):
        blob = bytearray(Path(data_file).read_bytes())
        struct.pack_into("<f", blob, 81 + 8 * 19 + hour * self.HOUR_BYTES + offset, np.nan)
        bad = tmp_path / "nan.wmd3"
        bad.write_bytes(blob)
        fc = str(tmp_path / "fc.lmtw")
        assert self.forecast(spec_file, params, data_file, fc, "--init-hour", "5",
                             "--dt", "5") == 0
        assert self.forecast(spec_file, params, str(bad), fc, "--init-hour", "5",
                             "--dt", "5") == 1
        assert main(["evaluate", "--forecast", fc, "--truth", str(bad),
                     "--wavelength-km", WAVELEN, "--out", str(tmp_path / "e.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("error: data: non-finite value in ")
        assert err[0].endswith(f"at time index {hour}")

    def test_forecast_memory_does_not_grow_with_the_file(self, tmp_path, spec_file, params):
        data = {}
        for hours in (4, 96):
            data[hours] = str(tmp_path / f"d{hours}.wmd3")
            assert main(["gen-data", "--spec", spec_file, "--hours", str(hours - 1),
                         "--seed", "3", "--out", data[hours]]) == 0
        fc = str(tmp_path / "fc.lmtw")
        assert self.forecast(spec_file, params, data[4], fc, "--dt", "1") == 0  # warm caches
        peak = {}
        for hours, path in data.items():
            tracemalloc.start()
            try:
                assert self.forecast(spec_file, params, path, fc, "--dt", "1") == 0
                peak[hours] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one_source_hour = (3 + 8 + 2 + 8) * 24 * 24 * 4
        assert abs(peak[96] - peak[4]) < 2 * one_source_hour, peak


class TestBlendedForecast:
    def argv(self, spec_file, params, data_file, out):
        return ["forecast", "--config", spec_file, "--params", params,
                "--init", data_file, "--init-hour", "0", "--dt", "7",
                "--source", "primary", "--source", "op1", "--out", out]

    def test_large_logits_stay_finite(self, tmp_path, spec_file, data_file):
        params = two_source_params(tmp_path, [1000.0, 999.0])
        out = str(tmp_path / "fc.lmtw")
        assert main(self.argv(spec_file, params, data_file, out)) == 0
        blobs = load_params_file(out)
        assert np.isfinite(blobs["surface"]).all()
        assert np.isfinite(blobs["atmos"]).all()

    def test_non_finite_blend_is_compute_error(self, tmp_path, spec_file, data_file,
                                               capsys):
        path = two_source_params(tmp_path, [0.3, -0.2])
        blobs = dict(load_params_file(path))
        blobs["enc_op.op1.stem_sfc.w"] = np.full_like(blobs["enc_op.op1.stem_sfc.w"], 1e308)
        save_params_file(path, blobs)
        out = str(tmp_path / "fc.lmtw")
        assert main(self.argv(spec_file, path, data_file, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: compute: forecast: latent after blend"), err

    def test_matches_model_blend_bitwise(self, tmp_path, spec_file, data_file):
        path = two_source_params(tmp_path, [0.3, -0.2])
        out = str(tmp_path / "fc.lmtw")
        assert main(self.argv(spec_file, path, data_file, out)) == 0
        cfg = load_config(spec_file)
        params = {k: ad.Tensor(v) for k, v in load_params_file(path).items()}
        ds = load_dataset_file(data_file)
        sources = ["primary", "op1"]
        with ad.no_grad():
            states = [ds.input_state(ds.index_at(0), j) for j in range(2)]
            lat = rollout(encode_sources(states, params, cfg, sources), greedy_plan(7),
                          params, cfg)
            dec = decode(lat, params, cfg)
        blobs = load_params_file(out)
        assert blobs["surface"].tobytes() == dec.surface.values.tobytes()
        assert blobs["atmos"].tobytes() == dec.atmos.values.tobytes()

    def test_manifest_config_rebuilds_config(self, tmp_path, spec_file,
                                             data_file):
        params = two_source_params(tmp_path, [0.0, 0.0])
        out = str(tmp_path / "fc.lmtw")
        assert main(self.argv(spec_file, params, data_file, out)) == 0
        man = json.loads((tmp_path / "fc.lmtw.manifest.json").read_text())
        assert config_from_dict(man["config"]) == load_config(spec_file)

    def test_manifest_records_blas_build_and_threads(self, tmp_path, spec_file, data_file,
                                                     monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        params = two_source_params(tmp_path, [0.0, 0.0])
        out = str(tmp_path / "fc.lmtw")
        assert main(self.argv(spec_file, params, data_file, out)) == 0
        versions = json.loads((tmp_path / "fc.lmtw.manifest.json").read_text())["versions"]
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"] == build["name"] and versions["blas_version"] == build["version"]
        assert versions["OPENBLAS_NUM_THREADS"] == "1"
        assert versions["OMP_NUM_THREADS"] is None


class TestTenExtraSources:
    """op10 sorts after op9 and reads dataset stream 10 in training and forecast."""

    STREAMS = {"primary": 0, **{f"op{j}": j for j in range(1, 11)}}

    @pytest.fixture()
    def model(self, tmp_path, spec_file):
        data = str(tmp_path / "eleven.wmd3")
        assert main(["gen-data", "--spec", spec_file, "--hours", "1",
                     "--seed", "3", "--sources", "11", "--out", data]) == 0
        cfg = tiny_config()
        params = init_model_params(cfg, seed=4)
        add_source_encoders(params, cfg, list(self.STREAMS)[1:], seed=4)
        params["blend.logits"] = ad.Tensor(np.linspace(-1.0, 1.0, 11))
        path = str(tmp_path / "eleven.lmtw")
        save_params_file(path, {k: v.values for k, v in params.items()})
        return cfg, params, path, data

    def blend(self, params, cfg, ds):
        sources = available_sources(params)
        with ad.no_grad():
            states = [ds.input_state(0, self.STREAMS[s]) for s in sources]
            return encode_sources(states, params, cfg, sources).tokens.values.tobytes()

    def test_blend_survives_a_round_trip(self, model):
        cfg, params, _, data = model
        blob = dump_params({k: v.values for k, v in params.items()})
        loaded = {k: ad.Tensor(v) for k, v in load_params(blob).items()}
        assert available_sources(loaded) == available_sources(params) == list(self.STREAMS)
        ds = load_dataset_file(data)
        assert self.blend(loaded, cfg, ds) == self.blend(params, cfg, ds)

    def test_training_and_forecast_read_stream_ten(self, tmp_path, spec_file, model):
        cfg, params, path, data = model
        ds = load_dataset_file(data)
        loaded = {k: ad.Tensor(v) for k, v in load_params_file(path).items()}
        with ad.no_grad():
            lat = training._initial_latent(loaded, cfg, ds, 0, "operational")
        assert lat.tokens.values.tobytes() == self.blend(params, cfg, ds)

        out = str(tmp_path / "fc.lmtw")
        assert main(["forecast", "--config", spec_file, "--params", path,
                     "--init", data, "--init-hour", "0", "--dt", "0",
                     "--source", "op10", "--out", out]) == 0
        with ad.no_grad():
            want = decode(encode(ds.input_state(0, 10), params, cfg, source="op10"),
                          params, cfg)
        assert load_params_file(out)["surface"].tobytes() == want.surface.values.tobytes()


class TestVerifyAndEnv:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok ") >= 10

    def test_out_dir_env(self, tmp_path, spec_file, monkeypatch):
        monkeypatch.setenv("GRIDCAST_OUT_DIR", str(tmp_path / "sandbox"))
        rc = main(["gen-data", "--spec", spec_file, "--hours", "2",
                   "--out", "rel.wmd3"])
        assert rc == 0
        assert (tmp_path / "sandbox" / "rel.wmd3").exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()
