import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpnet.ingest import (_CONFIG_FIELDS, FULL, Graph3D, IngestError, RunConfig,
                           XYZParseError, format_xyz, load_config, load_manifest,
                           load_xyz, parse_config, parse_xyz)


def test_parse_water_frame_with_target():
    text = "3\ntarget=-1.5\nO 0 0 0\nH 0.96 0 0\nH -0.24 0.93 0"
    graphs = parse_xyz(text)
    assert len(graphs) == 1
    g = graphs[0]
    assert g.n_atoms == 3
    assert list(g.atomic_numbers) == [8, 1, 1]
    assert g.graph_target == -1.5


def test_parse_minimal_frame_without_target():
    graphs = parse_xyz("1\n\nH 0 0 0")
    assert len(graphs) == 1
    assert graphs[0].n_atoms == 1
    assert graphs[0].graph_target is None


def test_parse_concatenated_frames():
    text = "2\n\nH 0 0 0\nH 1 0 0\n3\n\nO 0 0 0\nH 1 0 0\nH 0 1 0"
    graphs = parse_xyz(text)
    assert [g.n_atoms for g in graphs] == [2, 3]


def test_parse_reports_frame_and_line():
    text = "2\n\nH 0 0 0\nH 1 0 0\n2\n\nH 0 0 0\nXx 1 0 0"
    with pytest.raises(XYZParseError) as info:
        parse_xyz(text)
    assert info.value.frame == 1
    assert info.value.line == 8
    assert "Xx" in str(info.value)


@pytest.mark.parametrize("text,fragment", [
    ("x\n\nH 0 0 0", "malformed atom count"),
    ("1\n\nH 0 0 nan", "non-finite"),
    ("2\n\nH 0 0 0", "stream ended"),
    ("1\n\nH 0 zero 0", "bad coordinate"),
    ("1\ntarget=oops\nH 0 0 0", "bad target"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(XYZParseError, match=fragment):
        parse_xyz(text)


def test_heavy_elements_rejected():
    with pytest.raises(XYZParseError, match="unknown element symbol"):
        parse_xyz("1\n\nFr 0 0 0")  # Z = 87 is outside the supported table


def test_duplicate_positions_rejected():
    with pytest.raises(XYZParseError, match="duplicate-position"):
        parse_xyz("2\n\nH 0 0 0\nH 0 0 1e-9")


def test_graphs_are_immutable():
    g = parse_xyz("1\n\nH 0.5 0.25 0.125")[0]
    with pytest.raises(ValueError):
        g.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.atomic_numbers[0] = 2


@pytest.mark.parametrize("field, value", [
    ("atomic_numbers", [6.5]), ("atomic_numbers", [6.9]), ("atomic_numbers", [True]),
    ("atomic_numbers", [6 + 1j]), ("atomic_numbers", ["C"]), ("atomic_numbers", [None]),
    ("positions", [[0.0, 0.0, 1j]]), ("positions", [[0.0, 0.0, 0.0], [1.0, 0.0]]),
    ("graph_target", "x"), ("graph_target", np.array([1.0, 2.0])),
    ("graph_target", 10 ** 400), ("graph_target", True),
], ids=["z-half", "z-near-int", "z-bool", "z-complex", "z-symbol", "z-none",
        "pos-complex", "pos-ragged", "target-string", "target-array", "target-huge-int",
        "target-bool"])
def test_malformed_graph_fields_raise_ingest_error(field, value):
    # Integer-valued float atomic numbers and int targets stay accepted.
    fields = dict(atomic_numbers=[6.0], positions=[[0.0, 0.0, 0.0]], graph_target=1)
    graph = Graph3D(**fields)
    assert graph.atomic_numbers.dtype == np.int64 and graph.atomic_numbers[0] == 6
    assert type(graph.graph_target) is float and graph.graph_target == 1.0
    with pytest.raises(IngestError):
        Graph3D(**{**fields, field: value})


coordinate = st.floats(min_value=-500.0, max_value=500.0,
                       allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 86), coordinate, coordinate, coordinate),
                min_size=1, max_size=6),
       st.one_of(st.none(), coordinate))
def test_xyz_round_trip_is_bit_identical(atoms, target):
    numbers = np.array([a[0] for a in atoms])
    positions = np.array([[a[1], a[2], a[3]] for a in atoms])
    if positions.shape[0] > 1:
        dist = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 1e-6:
            return  # violates the duplicate-position guard by construction
    original = Graph3D(numbers, positions, graph_target=target, id="round")
    reparsed = parse_xyz(format_xyz([original]))[0]
    assert np.array_equal(reparsed.positions, original.positions)
    assert np.array_equal(reparsed.atomic_numbers, original.atomic_numbers)
    assert reparsed.graph_target == original.graph_target
    again = parse_xyz(format_xyz([reparsed]))[0]
    assert np.array_equal(again.positions, original.positions)


def test_parse_is_pure():
    text = "2\ntarget=0.25\nH 0 0 0\nHe 0.9 0.3 -0.4\n"
    first = parse_xyz(text)
    second = parse_xyz(text)
    assert np.array_equal(first[0].positions, second[0].positions)
    assert first[0].graph_target == second[0].graph_target


# --- manifest -----------------------------------------------------------------

def test_manifest_order_and_resolution(tmp_path):
    (tmp_path / "a.xyz").write_text("1\n\nH 0 0 0\n")
    (tmp_path / "b.xyz").write_text("1\n\nHe 0 0 0\n")
    manifest = tmp_path / "data.jsonl"
    manifest.write_text(
        json.dumps({"file": "a.xyz", "target": 1.0}) + "\n"
        + json.dumps({"file": "b.xyz", "target": -2.0}) + "\n"
    )
    entries = load_manifest(manifest)
    assert [t for _, t in entries] == [1.0, -2.0]
    assert entries[0][0].endswith("a.xyz")


def test_manifest_empty_file(tmp_path):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    assert load_manifest(manifest) == []


def test_manifest_nan_target_names_line(tmp_path):
    (tmp_path / "a.xyz").write_text("1\n\nH 0 0 0\n")
    manifest = tmp_path / "bad.jsonl"
    manifest.write_text(
        json.dumps({"file": "a.xyz", "target": 1.0}) + "\n"
        + '{"file": "a.xyz", "target": NaN}\n'
    )
    with pytest.raises(IngestError, match=":2:"):
        load_manifest(manifest)


def test_manifest_missing_file_and_duplicates(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"file": "gone.xyz", "target": 0.5}) + "\n")
    with pytest.raises(IngestError, match="missing"):
        load_manifest(manifest)
    (tmp_path / "a.xyz").write_text("1\n\nH 0 0 0\n")
    manifest.write_text(
        json.dumps({"file": "a.xyz", "target": 1.0}) + "\n"
        + json.dumps({"file": "a.xyz", "target": 2.0}) + "\n"
    )
    with pytest.raises(IngestError, match="duplicate"):
        load_manifest(manifest)


# --- run configuration ----------------------------------------------------------

def test_config_defaults_match_reference_values():
    cfg = parse_config("")
    assert cfg.n_srbf == 6
    assert cfg.n_shbf == 7
    assert cfg.cutoff_c == 5.0
    assert cfg.ewt_threshold == 0.02
    assert cfg.warmup_factor == 0.2
    assert cfg.ablation_mode == FULL


def test_config_single_override():
    cfg = parse_config("cutoff_c: 6\n")
    assert cfg.cutoff_c == 6.0
    assert cfg.n_srbf == 6
    assert cfg.n_shbf == 7


def test_config_range_and_key_errors():
    with pytest.raises(IngestError, match="n_srbf"):
        parse_config("n_srbf: 0")
    with pytest.raises(IngestError, match="ablation_mode"):
        parse_config("ablation_mode: SOMETIMES")
    with pytest.raises(IngestError, match="unknown config key"):
        parse_config("learning_rate_typo: 0.1")
    with pytest.raises(IngestError, match="warmup_factor"):
        parse_config("warmup_factor: 0")
    with pytest.raises(IngestError, match="decay_ratio"):
        parse_config("decay_ratio: 1.5")


def test_config_comments_and_duplicates():
    cfg = parse_config("# header\nbatch_size: 16  # trailing\n\nseed: 3\n")
    assert cfg.batch_size == 16
    assert cfg.seed == 3
    with pytest.raises(IngestError, match="duplicate"):
        parse_config("seed: 1\nseed: 2\n")


def test_config_replace_revalidates():
    cfg = RunConfig()
    with pytest.raises(IngestError):
        cfg.replace(cutoff_c=-1.0)


@pytest.mark.parametrize("name, value", [
    ("n_srbf", True), ("max_epochs", True), ("seed", "x"), ("seed", 1.5), ("t_max", 2.5),
    ("cutoff_c", True), ("ewt_threshold", math.inf), ("init_lr", "1"),
])
def test_config_rejects_values_of_the_wrong_type(name, value):
    with pytest.raises(IngestError, match=name):
        RunConfig(**{name: value})


def test_config_accepts_ints_numpy_floats_and_negative_seeds():
    cfg = RunConfig(cutoff_c=4, init_lr=np.float64(2e-3), seed=-5, t_max=7)
    assert (cfg.cutoff_c, cfg.init_lr, cfg.seed, cfg.t_max) == (4, 2e-3, -5, 7)


# --- loader fuzzing -------------------------------------------------------------
# Any input either parses or raises the loader's typed IngestError; nothing
# else (UnicodeDecodeError, MemoryError, TypeError, OverflowError, ...) escapes.

_numbers = st.integers().map(str) | st.floats().map(repr)
_xyz_lines = st.lists(
    _numbers | st.text(max_size=12)
    | st.tuples(st.sampled_from(["H", "C", "O", "Xx"]), _numbers, _numbers, _numbers)
    .map(" ".join)
    | st.builds("target={}".format, _numbers | st.text(max_size=6)),
    max_size=8).map("\n".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["file", "target", "x"]), inner, max_size=3),
    max_leaves=6)
_manifest_lines = st.lists(
    _json_values.map(json.dumps)
    | st.fixed_dictionaries({"file": _json_values, "target": _json_values}).map(json.dumps)
    | st.text(max_size=12),
    max_size=4).map("\n".join)
_config_lines = st.lists(
    st.tuples(st.sampled_from(sorted(_CONFIG_FIELDS)) | st.text(max_size=6),
              _numbers | st.text(max_size=8)).map(": ".join)
    | st.text(max_size=12),
    max_size=6).map("\n".join)


def _parses_or_ingest_error(load, argument):
    try:
        load(argument)
    except IngestError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text() | _xyz_lines)
def test_parse_xyz_fuzz_raises_only_ingest_error(text):
    _parses_or_ingest_error(parse_xyz, text)


@settings(max_examples=300, deadline=None)
@given(st.text() | _config_lines)
def test_parse_config_fuzz_raises_only_ingest_error(text):
    _parses_or_ingest_error(parse_config, text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([load_xyz, load_manifest, load_config]),
       st.binary(max_size=64) | (_xyz_lines | _manifest_lines | _config_lines)
       .map(lambda text: text.encode("utf-8", "surrogatepass")))
def test_file_loaders_fuzz_raise_only_ingest_error(tmp_path_factory, load, data):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    _parses_or_ingest_error(load, path)


@pytest.mark.parametrize("load", [load_xyz, load_manifest, load_config])
def test_loaders_reject_invalid_utf8(tmp_path, load):
    path = tmp_path / "input"
    path.write_bytes(b"1\n\xff\xfe\nH 0 0 0\n")
    with pytest.raises(IngestError, match="UTF-8"):
        load(path)


@pytest.mark.parametrize("count", ["100000000000", str(10 ** 30)])
def test_parse_xyz_huge_atom_count_is_stream_ended(count):
    with pytest.raises(XYZParseError, match="stream ended"):
        parse_xyz(f"{count}\n\nH 0 0 0\n")


@pytest.mark.parametrize("line,fragment", [
    ('{"file": 5, "target": 1.0}', "'file' must be a string"),
    ('{"file": "a.xyz", "target": 1%s}' % ("0" * 400), "non-finite target"),
    ('{"file": "a.xyz", "target": true}', ":1: target must be a number"),
    ("[" * 100000, "invalid record"),
    ('{"file": "a.xyz", "target": 1%s}' % ("0" * 5000), "invalid record"),
])
def test_manifest_malformed_fields_name_line(tmp_path, line, fragment):
    (tmp_path / "a.xyz").write_text("1\n\nH 0 0 0\n")
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(line + "\n")
    with pytest.raises(IngestError, match=fragment):
        load_manifest(manifest)
