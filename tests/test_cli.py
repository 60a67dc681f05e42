import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import smpnet.cli as cli
import smpnet.train as T
from smpnet.basis import build_tables, rbf_embed, sbf_embed, tbf_embed
from smpnet.cli import main
from smpnet.ingest import format_xyz
from smpnet.network import init_params, save_model
from smpnet.ingest import RunConfig, load_config


WATER = "3\ntarget=-1.5\nO 0 0 0\nH 0.96 0 0\nH -0.24 0.93 0\n"


@pytest.fixture
def water_file(tmp_path):
    path = tmp_path / "water.xyz"
    path.write_text(WATER)
    return path


def small_config_text():
    return (
        "cutoff_c: 2.0\n"
        "n_srbf: 3\n"
        "n_shbf: 2\n"
        "num_interaction_blocks: 1\n"
        "embed_size: 8\n"
        "lb2_distance_size: 3\n"
        "lb2_angle_size: 3\n"
        "lb2_torsion_size: 3\n"
        "output_embed_size: 6\n"
        "batch_size: 16\n"
        "max_epochs: 2\n"
        "warmup_epochs: 1\n"
        "max_z: 6\n"
    )


@pytest.fixture
def torsion_dataset_file(tmp_path):
    graphs = T.synthetic_torsion_task(64, seed=0)
    path = tmp_path / "chains.xyz"
    path.write_text(format_xyz(graphs))
    return path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("featurize", "train", "eval", "ablate", "basis-dump", "export-filters"):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out


def test_unknown_flag_is_usage_error(capsys, water_file):
    code = main(["featurize", "--input", str(water_file), "--out", "x.csv",
                 "--frobnicate", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    assert main([]) == 1


def test_featurize_output(tmp_path, water_file):
    out = tmp_path / "geom.csv"
    assert main(["featurize", "--input", str(water_file), "--cutoff", "5.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "graph_id,k,j,d,theta,phi"
    assert len(lines) > 1
    # every pair row carries finite values parsed back from 17-digit text
    for line in lines[1:]:
        _, k, j, d, theta, phi = line.split(",")
        assert 0 < float(d) <= 5.0
        assert 0 <= float(theta) <= math.pi
        assert 0 <= float(phi) < 2 * math.pi


def test_featurize_hydrogen_peroxide_dihedral(tmp_path):
    # Hand-built H2O2: the torsion column for the O-O edge pairs must contain
    # the constructed dihedral and its complement to a full turn.
    dihedral = 2.2
    d_oo, d_oh, angle = 1.475, 0.95, np.deg2rad(94.8)
    o1 = np.zeros(3)
    o2 = np.array([0.0, 0.0, d_oo])
    h1 = o1 + d_oh * np.array([np.sin(angle), 0.0, np.cos(angle)])
    h2 = o2 + d_oh * np.array([np.sin(angle) * np.cos(dihedral),
                               np.sin(angle) * np.sin(dihedral),
                               -np.cos(angle)])
    text = "4\n\n" + "\n".join(
        f"{sym} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"
        for sym, p in zip(["O", "O", "H", "H"], [o1, o2, h1, h2])) + "\n"
    source = tmp_path / "h2o2.xyz"
    source.write_text(text)
    out = tmp_path / "h2o2.csv"
    assert main(["featurize", "--input", str(source), "--cutoff", "5.0",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    edges_of_oo = [float(r[5]) for r in rows if r[1] == "0"]
    assert len(edges_of_oo) == 2
    assert sorted(edges_of_oo) == pytest.approx(
        sorted([dihedral, 2 * math.pi - dihedral]), abs=1e-9)


def test_featurize_byte_identical_reruns(tmp_path, water_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["featurize", "--input", str(water_file), "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_featurize_bad_cutoff_and_missing_file(tmp_path, water_file, capsys):
    assert main(["featurize", "--input", str(water_file), "--cutoff", "-1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["featurize", "--input", str(tmp_path / "nope.xyz"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_train_eval_round_trip(tmp_path, torsion_dataset_file):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_config_text())
    model = tmp_path / "model.bin"
    log = tmp_path / "log.csv"
    code = main(["train", "--input", str(torsion_dataset_file),
                 "--config", str(cfg_path), "--out-model", str(model),
                 "--log", str(log), "--seed", "5"])
    assert code == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,lr,train_mae,valid_mae"
    assert len(lines) == 3  # header + 2 epochs
    report = tmp_path / "report.txt"
    code = main(["eval", "--model", str(model), "--input", str(torsion_dataset_file),
                 "--out", str(report)])
    assert code == 0
    content = dict(line.split(": ") for line in report.read_text().splitlines())
    assert set(content) == {"mae", "std_mae", "ewt", "n_samples"}
    assert float(content["mae"]) >= 0.0
    assert 0.0 <= float(content["ewt"]) <= 1.0


def test_train_determinism_across_threads(tmp_path, torsion_dataset_file):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_config_text())
    outputs = []
    for threads, tag in (("1", "a"), ("4", "b"), ("1", "c")):
        model = tmp_path / f"model_{tag}.bin"
        log = tmp_path / f"log_{tag}.csv"
        assert main(["train", "--input", str(torsion_dataset_file),
                     "--config", str(cfg_path), "--out-model", str(model),
                     "--log", str(log), "--seed", "7", "--threads", threads]) == 0
        outputs.append((model.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_eval_config_mismatch_is_data_error(tmp_path, torsion_dataset_file, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_config_text())
    model = tmp_path / "model.bin"
    assert main(["train", "--input", str(torsion_dataset_file),
                 "--config", str(cfg_path), "--out-model", str(model)]) == 0
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(small_config_text().replace("cutoff_c: 2.0\n", "cutoff_c: 3.0\n"))
    code = main(["eval", "--model", str(model), "--input", str(torsion_dataset_file),
                 "--config", str(other_cfg)])
    assert code == 2
    assert "disagrees with session config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_element_above_max_z_is_data_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_config_text())
    data = tmp_path / "n.xyz"
    data.write_text("2\ntarget=1.0\nC 0 0 0\nC 1.2 0 0\n"
                    "2\ntarget=2.0\nN 0 0 0\nC 1.2 0 0\n")
    model = tmp_path / "model.bin"
    save_model(init_params(load_config(str(cfg_path)), seed=0), str(model))
    if command == "eval":
        argv = ["eval", "--model", str(model), "--input", str(data)]
    else:
        argv = ["train", "--input", str(data), "--config", str(cfg_path),
                "--out-model", str(tmp_path / "trained.bin")]
    assert main(argv) == 2
    assert "above max_z=6" in capsys.readouterr().err


def test_eval_manifest_input(tmp_path):
    cfg = RunConfig(cutoff_c=2.0, n_srbf=3, n_shbf=2, num_interaction_blocks=1,
                    embed_size=8, lb2_distance_size=3, lb2_angle_size=3,
                    lb2_torsion_size=3, output_embed_size=6, max_z=6)
    params = init_params(cfg, seed=0)
    model = tmp_path / "model.bin"
    save_model(params, str(model))
    graphs = T.synthetic_torsion_task(64, seed=1)[:4]
    records = []
    for i, g in enumerate(graphs):
        name = f"s{i}.xyz"
        (tmp_path / name).write_text(format_xyz([g.__class__(
            g.atomic_numbers, g.positions, id=g.id)]))
        records.append({"file": name, "target": g.graph_target})
    manifest = tmp_path / "data.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    report = tmp_path / "report.txt"
    assert main(["eval", "--model", str(model), "--manifest", str(manifest),
                 "--out", str(report)]) == 0
    assert "n_samples: 4" in report.read_text()


def test_basis_dump(tmp_path, monkeypatch):
    # One call per embedding embeds the whole grid.
    calls = dict.fromkeys(["rbf_embed", "sbf_embed", "tbf_embed"], 0)
    for name in calls:
        def counted(*args, _name=name, _embed=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _embed(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "basis.csv"
    assert main(["basis-dump", "--cutoff", "5.0", "--n-srbf", "2", "--n-shbf", "2",
                 "--samples", "2", "--out", str(out)]) == 0
    assert calls == dict(rbf_embed=1, sbf_embed=1, tbf_embed=1)
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,l,m,n,d,theta,phi,value"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"rbf", "sbf", "tbf"}
    # 2 distances x (2 rbf + 5 angles x (4 sbf + 4 azimuths x 8 tbf)) distinct rows,
    # each bitwise the scalar call at its point, read at its (l, m, n) column.
    assert len({tuple(line.split(",")[:7]) for line in lines[1:]}) == len(lines) - 1 == 364
    tables = build_tables(5.0, 2, 2)
    for line in lines[1:]:
        kind, ell, m, n, *point, value = line.split(",")
        point = [float(x) for x in point if x]
        if kind == "rbf":
            expected = rbf_embed(*point, tables)[int(n) - 1]
        elif kind == "sbf":
            expected = sbf_embed(*point, tables)[int(ell), int(n) - 1]
        else:
            column = (int(ell) ** 2 + int(ell) + int(m)) * tables.n_srbf + int(n) - 1
            expected = tbf_embed(*point, tables)[column]
        assert value == format(float(expected), ".17g"), line
    # boundary samples at d = c are exact zeros
    for line in lines[1:]:
        parts = line.split(",")
        if parts[4] == "5" and parts[0] == "rbf":
            assert abs(float(parts[7])) < 1e-12


def test_basis_dump_streams_its_rows(tmp_path):
    # Rows are written one distance at a time, so the traced peak grows with
    # the embedded grid (about 0.05 MB per sample at the default basis), not
    # with the text: holding every row, it grew 1.5 MB per sample.
    out = str(tmp_path / "basis.csv")
    main(["basis-dump", "--samples", "2", "--out", out])   # builds the cached tables

    def peak(samples):
        tracemalloc.start()
        try:
            assert main(["basis-dump", "--samples", str(samples), "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    assert peak(40) - peak(10) <= 30 * 0.2


def test_basis_dump_invalid_order(tmp_path, capsys):
    assert main(["basis-dump", "--n-shbf", "40",
                 "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("cutoff", ["1e308", "1e-300"])
def test_basis_dump_cutoff_out_of_float_range_is_usage_error(tmp_path, capsys, cutoff):
    # Its cube overflows (or underflows to 0) in the basis norms.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["basis-dump", "--cutoff", cutoff, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "normalization constants" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["1e200", "1e-300"])
@pytest.mark.parametrize("command", ["train", "eval", "export-filters"])
def test_cutoff_out_of_float_range_is_data_error(tmp_path, torsion_dataset_file, capsys,
                                                  command, cutoff):
    # A config line or a checkpoint header reaches the same basis tables.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_config_text().replace("cutoff_c: 2.0", f"cutoff_c: {cutoff}"))
    model = tmp_path / "model.bin"
    save_model(init_params(load_config(str(cfg_path)), seed=0), str(model))
    argv = {
        "train": ["train", "--input", str(torsion_dataset_file), "--config", str(cfg_path),
                  "--out-model", str(tmp_path / "trained.bin")],
        "eval": ["eval", "--model", str(model), "--input", str(torsion_dataset_file)],
        "export-filters": ["export-filters", "--model", str(model),
                           "--out", str(tmp_path / "filters.csv")],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    assert "normalization constants" in capsys.readouterr().err


def test_export_filters_cli(tmp_path):
    cfg = RunConfig(cutoff_c=2.0, n_srbf=3, n_shbf=2, num_interaction_blocks=1,
                    embed_size=8, lb2_distance_size=3, lb2_angle_size=3,
                    lb2_torsion_size=3, output_embed_size=6, max_z=6)
    params = init_params(cfg, seed=3)
    model = tmp_path / "model.bin"
    save_model(params, str(model))
    out = tmp_path / "filters.csv"
    assert main(["export-filters", "--model", str(model),
                 "--phi", "0,1.5708,3.14159,4.71239",
                 "--d-samples", "4", "--theta-samples", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("d,theta,phi,c0")
    assert len(lines) == 1 + 4 * 3 * 4
    phis = {line.split(",")[2] for line in lines[1:]}
    assert len(phis) == 4

    subset = tmp_path / "subset.csv"
    assert main(["export-filters", "--model", str(model), "--phi", "0",
                 "--d-samples", "2", "--theta-samples", "2",
                 "--channels", "1,3", "--out", str(subset)]) == 0
    assert subset.read_text().splitlines()[0] == "d,theta,phi,c1,c3"


def filter_model(tmp_path, blocks=1):
    # n_shbf 3: the sweep's largest m * phi is 2 * phi, which overflows at --phi 1e308.
    cfg = RunConfig(cutoff_c=2.0, n_srbf=3, n_shbf=3, num_interaction_blocks=blocks,
                    embed_size=8, lb2_distance_size=3, lb2_angle_size=3,
                    lb2_torsion_size=3, output_embed_size=4, max_z=6)
    model = tmp_path / "model.bin"
    save_model(init_params(cfg, seed=3), str(model))
    return model


@pytest.mark.parametrize("flag", [("--channels", "99"), ("--channels", "-1"),
                                  ("--channels", ","), ("--phi", "nan"), ("--phi", "1e308")],
                         ids=["channel99", "channel-1", "channels-empty", "phi-nan",
                              "phi-overflows-in-sweep"])
def test_export_filters_bad_flag_value_is_usage_error(tmp_path, capsys, flag):
    code = main(["export-filters", "--model", str(filter_model(tmp_path)),
                 "--d-samples", "2", "--theta-samples", "2",
                 *flag, "--out", str(tmp_path / "filters.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "filters.csv").exists()


def test_export_filters_zero_block_model_is_data_error(tmp_path, capsys):
    code = main(["export-filters", "--model", str(filter_model(tmp_path, blocks=0)),
                 "--out", str(tmp_path / "filters.csv")])
    assert code == 2
    assert "interaction block" in capsys.readouterr().err


def test_malformed_checkpoint_is_data_error(tmp_path, capsys):
    from smpnet.network import FORMAT_MAGIC
    model = tmp_path / "model.bin"
    model.write_bytes(FORMAT_MAGIC + b"\x05")
    code = main(["export-filters", "--model", str(model), "--phi", "0",
                 "--out", str(tmp_path / "filters.csv")])
    assert code == 2
    assert "header length" in capsys.readouterr().err


def test_ablate_smoke(tmp_path):
    # Tiny budget: checks the table format, not the ordering (that is the
    # acceptance suite's job at the full protocol scale).
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--task", "lengths", "--epochs", "2", "--seeds", "1",
                 "--train-size", "64", "--test-size", "16",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,full_mae,no_torsion_mae,no_angle_torsion_mae"
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("median,")


@pytest.fixture
def no_work(monkeypatch):
    """Replaces the long-running entry points by spies that record any call."""
    calls = []
    for name in ("train", "run_ablation", "evaluate"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    return calls


@pytest.mark.parametrize("flag", ["--out-model", "--log"])
@pytest.mark.parametrize("parent", ["missing", "file", "directory"])
def test_train_checks_output_paths_first(tmp_path, torsion_dataset_file, capsys, no_work,
                                         flag, parent):
    (tmp_path / "file").write_text("")
    (tmp_path / "directory" / "out").mkdir(parents=True)   # the output path is a directory
    outputs = {"--out-model": str(tmp_path / "model.bin"), "--log": str(tmp_path / "log.csv")}
    outputs[flag] = str(tmp_path / parent / "out")
    argv = ["train", "--input", str(torsion_dataset_file)]
    argv += [token for item in outputs.items() for token in item]
    assert main(argv) == 2
    assert no_work == []
    assert str(tmp_path / parent) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ablate", "eval", "featurize", "basis-dump",
                                     "export-filters"])
def test_other_commands_check_output_paths_first(tmp_path, water_file, capsys, no_work,
                                                 command):
    (tmp_path / "directory").mkdir()
    model = tmp_path / "model.bin"
    save_model(init_params(RunConfig(embed_size=8, output_embed_size=6), seed=0), str(model))
    argv = {
        "ablate": ["ablate", "--epochs", "1", "--seeds", "1"],
        "eval": ["eval", "--model", str(model), "--input", str(water_file)],
        "featurize": ["featurize", "--input", str(water_file)],
        "basis-dump": ["basis-dump"],
        "export-filters": ["export-filters", "--model", str(model)],
    }[command]
    for out, message in ((tmp_path / "missing" / "out.csv", "output directory does not exist"),
                         (tmp_path / "directory", "output path is a directory")):
        assert main(argv + ["--out", str(out)]) == 2
        assert no_work == []
        assert message in capsys.readouterr().err
