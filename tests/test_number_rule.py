"""The one number rule: every numeric field of a public constructor refuses a bad value by name.

A number is a numbers.Real that is not a bool (numbers.Integral for the
integer rules), so strings, None, bools and 0-d arrays are refused along with
NaN, infinities and values below the rule's bound.  Each case builds one
object, or runs one function, from one field's value with every other input
valid (a field that is a tuple member is named like scales[1]); the property
swaps in a value that breaks the field's rule.  The report dataclasses
(MetricReport, CdfTable, EntropyProfile and the like) are outputs and hold no
rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiofront import (
    PRESETS,
    UNIT_DB,
    UNIT_NORM01,
    CdfTable,
    CityParams,
    CostField,
    GradLossConfig,
    HeightMap,
    JointDist,
    LinkBudget,
    OrderParams,
    PatchGrid,
    RadioField,
    RopeConfig,
    RxConfig,
    Scene,
    TxConfig,
    ValidationError,
    alternative_order,
    anchor_map,
    blockage_ratio_batch,
    build_shadow_joint,
    denormalize_db,
    fspl,
    gen_field,
    hilbert_order,
    limited_context_entropy,
    normalize_db,
    prior_pl_order,
    raster_order,
    rope_rotate_1d,
    rope_rotate_3d,
    split_axis_dims,
    subsample_order,
    zcurve_order,
)
from radiofront.rope import rotary_frequencies

FINITE, POSITIVE, NON_NEGATIVE = "finite", "finite and > 0", "finite and >= 0"
COUNT, INDEX = "an integer >= 1", "an integer >= 0"

SCENE = Scene(HeightMap(np.zeros((8, 8)), 1.0), TxConfig(2.5, 3.5))
DB = RadioField(np.full((2, 2), -80.0), UNIT_DB)
JOINT = JointDist(np.full((2, 2, 2), 0.125))
CHAIN = CostField(np.arange(3.0), [-1, 0, 1], 0)
ANCHOR = RadioField(-np.arange(64.0).reshape(8, 8), UNIT_DB)
# at q = 60, q / 100 * 25 is 15.0 in float64 but 15.000001 in float32, one index further
CDF = CdfTable(np.arange(25.0), np.arange(1, 26) / 25)
Q = np.arange(1.0, 7.0)
ROPE = RopeConfig(6, (2, 2, 2))


def anchor_at(z):
    return anchor_map(SCENE, z=z)


def fields_of(build, table):
    """One case per (name, rule, valid value): build(**{name: value})."""
    return [(name, rule, lambda v, name=name: build(**{name: v}), good) for name, rule, good in table]


CASES = [
    ("resolution", POSITIVE, lambda v: HeightMap(np.zeros((2, 2)), v), 0.5),
    ("resolution", POSITIVE, lambda v: RadioField(np.zeros((2, 2)), UNIT_DB, v), 2.0),
    *fields_of(lambda **kw: TxConfig(**{"x": 1.0, "y": 2.0, **kw}), [
        ("x", FINITE, -1.0), ("y", FINITE, 0.5), ("z", NON_NEGATIVE, 0.0), ("f", POSITIVE, 2.0**32),
        ("p_tx", FINITE, 20.0), ("w", POSITIVE, 1e6), ("nf", FINITE, -3.0), ("d0", POSITIVE, 0.5),
    ]),
    *fields_of(lambda **kw: RxConfig(**{"n_z": 3, **kw}), [
        ("z_rx", FINITE, 1.5), ("n_z", COUNT, 2), ("dz", FINITE, 0.5),
    ]),
    *fields_of(lambda **kw: PatchGrid(**{"patch_px": 4, "n_side": 2, "resolution": 1.0, "z": 1.5, **kw}), [
        ("patch_px", COUNT, 2), ("n_side", COUNT, 4), ("resolution", POSITIVE, 0.25), ("z", FINITE, -2.0),
    ]),
    ("patch_px", COUNT, lambda v: PatchGrid.for_scene(SCENE, v), 4),
    *fields_of(OrderParams, [
        ("alpha_los", NON_NEGATIVE, 0.0), ("alpha_nlos", NON_NEGATIVE, 3.0), ("beta_clamp", POSITIVE, 0.5),
    ]),
    ("source", INDEX, lambda v: CostField(np.arange(4.0), [-1, 0, 0, 0], v), 0),
    ("l_thr", FINITE, LinkBudget, -120.0),
    ("resolution", POSITIVE, lambda v: blockage_ratio_batch(np.zeros((4, 4)), v, [[0, 0, 1]], [[1, 1, 1]]), 0.5),
    ("lambda_z", NON_NEGATIVE, lambda v: GradLossConfig(lambda_z=v), 0.25),
    ("scales[1]", COUNT, lambda v: GradLossConfig(scales=(1, v)), 2),
    *fields_of(lambda **kw: CityParams(**{"side_px": 16, "footprint_range": (2, 4), **kw}), [
        ("side_px", COUNT, 8), ("resolution", POSITIVE, 0.5), ("n_buildings", INDEX, 0), ("seed", INDEX, 7),
    ]),
    ("height_range[0]", NON_NEGATIVE, lambda v: CityParams(height_range=(v, 20.0)), 0.0),
    ("height_range[1]", NON_NEGATIVE, lambda v: CityParams(height_range=(0.0, v)), 8.0),
    ("footprint_range[0]", COUNT, lambda v: CityParams(footprint_range=(v, 48)), 1),
    ("footprint_range[1]", COUNT, lambda v: CityParams(footprint_range=(16, v)), 16),
    *fields_of(lambda **kw: gen_field(SCENE, **kw), [
        ("noise_sigma", NON_NEGATIVE, 0.5), ("smooth_sigma", NON_NEGATIVE, 0.5), ("seed", INDEX, 3),
        # 0.7 is not exact in float32, so a float32 sigma shows its own kernel
        ("smooth_sigma", NON_NEGATIVE, 0.7),
    ]),
    *[
        case
        for preset in PRESETS.values()
        for case in fields_of(lambda preset=preset, **kw: preset(**{"side_px": 24, **kw}), [
            ("seed", INDEX, 5), ("side_px", COUNT, 24), ("resolution", POSITIVE, 0.5),
        ])
    ],
    *fields_of(lambda **kw: RopeConfig(**{"head_dim": 6, "axis_dims": (2, 2, 2), **kw}), [
        ("head_dim", COUNT, 6), ("theta_base", POSITIVE, 100.0),
    ]),
    ("axis_dims[1]", COUNT, lambda v: RopeConfig(8, (2, v, 2)), 4),
    ("k", INDEX, lambda v: limited_context_entropy(JOINT, [0, 1, 2], v), 1),
    ("order[2]", INDEX, lambda v: limited_context_entropy(JOINT, [2, 1, v], 1), 0),
    *[
        ("n_side", COUNT, order, 4)
        for order in (raster_order, alternative_order, hilbert_order, zcurve_order, subsample_order)
    ],
    ("n_side", COUNT, lambda v: prior_pl_order(ANCHOR, v), 4),
    # 0.5 is exact in float32, 0.1 is not: a float32 eps shows its own 1 - eps
    *[("eps", NON_NEGATIVE, lambda v: build_shadow_joint(CHAIN, v).probs, good) for good in (0.5, 0.1)],
    *[("q", FINITE, CDF.percentile, good) for good in (50.0, 60.0)],
    *fields_of(lambda **kw: normalize_db(DB, **kw), [("lo", FINITE, -40.0), ("hi", FINITE, -160.0)]),
    *fields_of(lambda **kw: denormalize_db(RadioField(np.ones((2, 2)), UNIT_NORM01), **kw), [
        ("lo", FINITE, -40.0), ("hi", FINITE, -160.0),
    ]),
    ("d", COUNT, split_axis_dims, 8),
    ("m", FINITE, lambda v: rope_rotate_1d(Q, v), -3.0),
    ("theta_base", POSITIVE, lambda v: rope_rotate_1d(Q, 3.0, v), 100.0),
    *fields_of(lambda **kw: rope_rotate_3d(Q, **{"x": 1.0, "y": 2.0, "z": 3.0, **kw}, config=ROPE), [
        ("x", FINITE, -4.0), ("y", FINITE, 0.5), ("z", FINITE, 2.0),
    ]),
    ("z", FINITE, anchor_at, 2.0),
    ("f", POSITIVE, lambda v: fspl(10.0, v), 2.0**31),
    ("d", INDEX, lambda v: rotary_frequencies(v, 100.0), 6),
    ("theta_base", POSITIVE, lambda v: rotary_frequencies(6, v), 100.0),
    ("clamp[0]", FINITE, lambda v: gen_field(SCENE, clamp=(v, -100.0)), -40.0),
    ("clamp[1]", FINITE, lambda v: gen_field(SCENE, clamp=(-40.0, v)), -100.0),
]
IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(CASES)]

# values no rule takes as a number, tried on every field
NOT_A_NUMBER = [math.nan, math.inf, -math.inf, "1", None, True, False, np.True_, np.array(1.0)]
# numbers outside each rule: a fixed table, then one drawn per example
OUTSIDE = {
    FINITE: [],
    POSITIVE: [0, 0.0, -1.0],
    NON_NEGATIVE: [-1, -1e-300],
    # a float is no integer, whole or not
    COUNT: [0, -1, 2.5, 2.0, np.float64(2.0)],
    INDEX: [-1, 2.5, 2.0, np.float64(2.0)],
}
DRAWN = {
    FINITE: st.sampled_from(NOT_A_NUMBER),
    POSITIVE: st.floats(max_value=0.0, allow_infinity=False) | st.integers(max_value=0),
    NON_NEGATIVE: st.floats(max_value=-5e-324, allow_infinity=False) | st.integers(max_value=-1),
    COUNT: st.integers(max_value=0) | st.floats(),
    INDEX: st.integers(max_value=-1) | st.floats(),
}


@pytest.mark.parametrize("name, rule, build, good", CASES, ids=IDS)
@settings(max_examples=10)
@given(data=st.data())
def test_a_bad_number_is_refused_by_name(name, rule, build, good, data):
    for bad in [*NOT_A_NUMBER, *OUTSIDE[rule], data.draw(DRAWN[rule], label=name)]:
        if bad is None and build is anchor_at:  # anchor_map's z=None means the scene's receiver height
            assert same(build(bad), build(SCENE.rx.z_rx))
            continue
        with pytest.raises(ValidationError) as err:
            build(bad)
        assert str(err.value) == f"{name} must be {rule}, got {bad!r}"


# tuple fields: a value without a length, or of another length, is refused
# by name before its members are checked
SEQUENCES = [
    ("scales", "a non-empty sequence", lambda v: GradLossConfig(scales=v), [2, None, ()]),
    ("axis_dims", "a triple", lambda v: RopeConfig(6, v), [2, np.array(6), (2, 4), (2, 2, 2, 0)]),
    ("height_range", "a pair", lambda v: CityParams(height_range=v), [5, None, (1, 2, 3), (10.0,)]),
    ("footprint_range", "a pair", lambda v: CityParams(footprint_range=v), [16, (4,), (4, 8, 16)]),
    ("clamp", "a pair", lambda v: gen_field(SCENE, clamp=v), [-100.0, (-100,), (-40, -100, -70)]),
]


@pytest.mark.parametrize("name, rule, build, bad_values", SEQUENCES, ids=[case[0] for case in SEQUENCES])
def test_a_tuple_field_of_another_length_is_refused_by_name(name, rule, build, bad_values):
    for bad in bad_values:
        with pytest.raises(ValidationError) as err:
            build(bad)
        assert str(err.value) == f"{name} must be {rule}, got {bad!r}"


def same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else bool(a == b)


@pytest.mark.parametrize("name, rule, build, good", CASES, ids=IDS)
def test_numpy_scalars_build_what_python_numbers_build(name, rule, build, good):
    scalar = np.int64(good) if rule in (COUNT, INDEX) else np.float32(good)
    assert same(build(scalar), build(scalar.item()))
    if scalar.item() == good:  # np.float32(0.7) is another number than 0.7
        assert same(build(good), build(scalar.item()))
