"""Fuzz tests for every parser of external input.

A truncated forest or ensemble payload is a FormatError; a payload with
flipped or inserted bytes either is a FormatError or loads a structure whose
every bucket is the one its loaded members define. Random bytes as
fvecs/bvecs files and random text as data CSV, ground-truth CSV or config
file either parse or raise ValueError (FormatError is one). No other
exception type may escape a parser.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cslsh.adaptive import (
    AdaptiveConfig, ForestEnsemble, build_ensemble, ensemble_from_bytes, ensemble_to_bytes,
)
from cslsh.cli import DEFAULTS, resolve_config
from cslsh.core import Dataset, FormatError, Metric, RngSeed, _pack_bits
from cslsh.data import InstanceSpec, generate, load_dataset, load_instance, save_instance
from cslsh.families import BitSampling, SignRandomProjection
from cslsh.forest import build_forest, forest_from_bytes, forest_to_bytes
from cslsh.oracle import naive_prefix_filter

SEED = RngSeed(808)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _payloads():
    """(name, loader, dataset, valid payload) for small forests and an ensemble.

    The Hamming structures take K = 16, so that most single-bit changes to
    any per-point state a format might store still look well formed."""
    rng = SEED.child("payloads").generator()
    hamming = Dataset.from_bits(rng.integers(0, 2, size=(12, 16), dtype=np.uint8))
    angular = Dataset.from_reals(rng.standard_normal((10, 4)), Metric.ANGULAR)
    return [
        ("forest-bit-sampling", forest_from_bytes, hamming,
         forest_to_bytes(build_forest(hamming, BitSampling(16), 16, 2, SEED.child("b")))),
        ("forest-sign-projection", forest_from_bytes, angular,
         forest_to_bytes(build_forest(angular, SignRandomProjection(4), 5, 2, SEED.child("s")))),
        ("ensemble", ensemble_from_bytes, hamming,
         ensemble_to_bytes(build_ensemble(hamming, BitSampling(16), 16, 1, SEED.child("e"),
                                          AdaptiveConfig(c_forests=1.0), l_prime=1))),
    ]


_PAYLOADS = _payloads()
# Hashing a payload that loaded must not overflow: a RuntimeWarning fails the test.
_payload_case = pytest.mark.parametrize("case", [
    pytest.param(c, id=c[0], marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
    for c in _PAYLOADS])


def _loads_correctly_or_format_error(loader, payload: bytes, dataset, data) -> None:
    """The payload is a FormatError, or it loads and, for every data point and
    one random query, every tree's bucket at every level is the naive filter
    over that tree's loaded members."""
    try:
        loaded = loader(payload, dataset)
    except FormatError:
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="query seed"))
    if dataset.metric is Metric.HAMMING:
        q = _pack_bits(rng.integers(0, 2, size=(1, dataset.dim), dtype=np.uint8))[0]
    else:
        q = rng.standard_normal(dataset.dim)
    queries = [dataset.point(p) for p in range(dataset.n)] + [q]
    forests = loaded.forests if isinstance(loaded, ForestEnsemble) else [loaded]
    for forest in forests:
        for j, tree in enumerate(forest.trees, 1):
            for x in queries:
                for i in range(forest.K + 1):
                    want = naive_prefix_filter(tree.members, dataset, x, i).tolist()
                    assert sorted(forest.bucket(j, i, x).tolist()) == want


def _parses_or_value_error(parse, *args) -> None:
    try:
        parse(*args)
    except ValueError:
        pass


@_payload_case
def test_valid_payloads_load(case):
    _, loader, dataset, payload = case
    loader(payload, dataset)


@_payload_case
@FUZZ
@given(data=st.data())
def test_truncated_payload_is_a_format_error(case, data):
    _, loader, dataset, payload = case
    cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
    with pytest.raises(FormatError):
        loader(payload[:cut], dataset)


@_payload_case
@FUZZ
@given(data=st.data())
def test_flipped_bytes_load_or_are_a_format_error(case, data):
    _, loader, dataset, payload = case
    out = bytearray(payload)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(out) - 1), st.integers(1, 255)),
                               min_size=1, max_size=4), label="flips")
    for pos, mask in flips:
        out[pos] ^= mask
    _loads_correctly_or_format_error(loader, bytes(out), dataset, data)


@_payload_case
@FUZZ
@given(data=st.data())
def test_flipped_bit_loads_correctly_or_is_a_format_error(case, data):
    # one flipped bit is the corruption likeliest to leave a payload well formed
    _, loader, dataset, payload = case
    bit = data.draw(st.integers(0, 8 * len(payload) - 1), label="bit")
    out = bytearray(payload)
    out[bit // 8] ^= 1 << bit % 8
    _loads_correctly_or_format_error(loader, bytes(out), dataset, data)


@_payload_case
@FUZZ
@given(data=st.data())
def test_inserted_bytes_load_or_are_a_format_error(case, data):
    _, loader, dataset, payload = case
    pos = data.draw(st.integers(0, len(payload)), label="pos")
    extra = data.draw(st.binary(min_size=1, max_size=16), label="extra")
    _loads_correctly_or_format_error(loader, payload[:pos] + extra + payload[pos:], dataset, data)


# A vecs record is a little-endian int32 dimension and then the coordinates;
# random bytes behind a small plausible dimension reach past the header checks.
_vecs_bytes = st.binary(max_size=80) | st.builds(
    lambda dim, body: struct.pack("<i", dim) + body, st.integers(1, 4), st.binary(max_size=64))

# Random text, and text over the characters a numeric CSV or config is made of.
_text = st.text(max_size=120) | st.text("01-.e+,;= #\"\n\r\t\0naifINFx", max_size=120)


@FUZZ
@given(raw=_vecs_bytes, ext=st.sampled_from([".fvecs", ".bvecs"]),
       metric=st.sampled_from(list(Metric)))
def test_random_vecs_parse_or_raise_value_error(tmp_path, raw, ext, metric):
    path = tmp_path / ("data" + ext)
    path.write_bytes(raw)
    _parses_or_value_error(load_dataset, str(path), metric)


@FUZZ
@given(text=_text, metric=st.sampled_from(list(Metric)))
def test_random_data_csv_parses_or_raises_value_error(tmp_path, text, metric):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _parses_or_value_error(load_dataset, str(path), metric)


@FUZZ
@given(text=_text)
def test_random_truth_csv_parses_or_raises_value_error(tmp_path, text):
    prefix = str(tmp_path / "inst")
    save_instance(generate(InstanceSpec("uniform-hamming", 8, 16, 3, 1)), prefix)
    with open(prefix + ".truth.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _parses_or_value_error(load_instance, prefix, Metric.HAMMING)


_config_line = st.builds(
    lambda key, value: f"{key} = {value}",
    st.sampled_from(sorted(DEFAULTS)) | st.text(max_size=8), _text)


@FUZZ
@given(lines=st.lists(_config_line | _text, max_size=6))
def test_random_config_resolves_or_raises_value_error(tmp_path, lines):
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines), encoding="utf-8", newline="")
    _parses_or_value_error(resolve_config, str(path), {})
