"""The checked boundary: `errors.check_int`, `check_real` and `check_array`, and every entry point that uses them.

Hypothesis feeds each public constructor and entry point one bad-or-odd
parameter at a time, with warnings raised as errors: each call must give a
valid object or a CalibkitError. Entry points that would then start real
work are stopped at their first piece of work, which counts as accepted.
Each numeric CLI flag given a value its own rule rejects must exit 2 before
any file is read, with one `error:` line naming the flag.
"""

import contextlib
import fractions
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calibkit import (
    BinaryDataset,
    BinningConfig,
    ClassWiseTemperature,
    FitConfig,
    HeteroLogitSpec,
    LinearBinaryClassifier,
    LogitDataset,
    NoisyBinarySpec,
    RareAtomSpec,
    Temperature,
    Vector,
    fit_constrained_logistic,
    optimal_noisy_classifier,
    rare_atom_experiment,
    run_sweep,
    sample_dnoisy,
)
from calibkit import io as kio
from calibkit import sweep, synthetic
from calibkit.cli import main
from calibkit.errors import (
    CalibkitError,
    ConfigError,
    DegenerateNoiseError,
    InvalidInputError,
    InvalidModelError,
    check_array,
    check_int,
    check_real,
)


class Accepted(Exception):
    """Raised in place of the first piece of real work: the inputs passed every check."""


def accepted(*args, **kwargs):
    raise Accepted


def hetero(**kw):
    args = dict(num_classes=3, class_sizes=[5, 5, 5], scales=[1.0, 1.0, 1.0], noise_rates=[0.0, 0.0, 0.0],
                margin=2.0, seed=1)
    return HeteroLogitSpec(**{**args, **kw})


DATASET = LogitDataset(np.zeros((3, 2)), [0, 1, 0])
BINARY = BinaryDataset(np.ones((2, 1)), [0, 1])
NOISY = NoisyBinarySpec(0.1, 0.1)

# (entry point, its valid keyword arguments). Each case replaces one of them.
ENTRY_POINTS = {
    "LogitDataset": (LogitDataset, {"logits": np.zeros((3, 2)), "labels": [0, 1, 0]}),
    "LogitDataset.subset": (DATASET.subset, {"indices": [2, 0]}),
    "BinaryDataset": (BinaryDataset, {"x": np.ones((2, 1)), "y": [0, 1]}),
    "Temperature": (Temperature, {"alpha": 1.5}),
    "ClassWiseTemperature": (ClassWiseTemperature, {"alpha0": 1.0, "alphas": [1.0, 1.2], "gamma": 0.5}),
    "Vector": (Vector, {"scale": [1.0, 1.0], "bias": [0.0, 0.0]}),
    "FitConfig": (FitConfig, {"alpha_lo": 0.01, "alpha_hi": 100.0, "gamma": 1.0, "min_class_samples": 10}),
    "BinningConfig": (BinningConfig, {"num_bins": 15}),
    "NoisyBinarySpec": (NoisyBinarySpec, {"p_plus": 0.1, "p_minus": 0.2, "p_test": 0.0, "direction": [1.0]}),
    "LinearBinaryClassifier": (LinearBinaryClassifier, {"weight": [1.0], "intercept": 0.0}),
    "RareAtomSpec": (RareAtomSpec, {"n": 10, "epsilon": 0.01}),
    "HeteroLogitSpec": (hetero, {"num_classes": 3, "class_sizes": [5, 5, 5], "scales": [1.0, 2.0, 1.0],
                                 "noise_rates": [0.0, 0.1, 0.0], "margin": 2.0, "seed": 1}),
    "sample_dnoisy": (sample_dnoisy, {"spec": NOISY, "n": 10, "seed": 1}),
    "optimal_noisy_classifier": (optimal_noisy_classifier, {"p_plus": 0.1, "p_minus": 0.2, "direction": [1.0]}),
    "fit_constrained_logistic": (fit_constrained_logistic, {"atoms": BINARY, "counts": [1, 1], "radius": 5.0}),
    "rare_atom_experiment": (rare_atom_experiment, {"n": 10, "epsilon": 0.01, "trials": 1, "seed": 1}),
    "run_sweep": (run_sweep, {"axis": "noise", "values": [0.0, 0.2], "base": hetero(), "trials": 2,
                              "test_records": 30}),
    "run_sweep n_val": (run_sweep, {"axis": "n_val", "values": [3, 6], "base": hetero(), "trials": 2,
                                    "test_records": 30}),
    "gen_hetero_logits": (synthetic.gen_hetero_logits, {"spec": hetero(), "splits": ("val", "test")}),
}
# The work each entry point starts once its inputs pass, stopped by `accepted`.
WORK = [
    (np.random, "default_rng"),
    (synthetic, "minimize_lbfgs"),
    (sweep, "gen_hetero_logits"),
]
CASES = [(name, param) for name, (_, kwargs) in ENTRY_POINTS.items() for param in kwargs
         if not (name.startswith("run_sweep") and param == "base") and param not in ("spec", "atoms")]

ODD_SCALARS = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(max_denominator=7),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([
        np.bool_(True), np.int64(3), np.int8(-1), np.uint64(2**64 - 1), np.float32(1.5), np.float64("nan"),
        2**63, -(2**63) - 1, 2**64, 10**400, math.nan, math.inf, -math.inf, 0, -1, 1.5, "1", b"1", 1 + 0j,
        fractions.Fraction(1, 3), fractions.Fraction(6, 3),
    ]),
)
ODD_ARRAYS = st.one_of(
    hnp.arrays(st.sampled_from([np.bool_, np.complex128, np.float64, np.float32, np.int64, np.uint64, np.int8]),
               hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)),
    hnp.arrays(object, hnp.array_shapes(min_dims=1, max_dims=1, max_side=3), elements=ODD_SCALARS),
    st.lists(ODD_SCALARS, max_size=4),
    st.lists(st.lists(st.floats(), max_size=3), max_size=3),
)


def call(name, **replacement):
    fn, kwargs = ENTRY_POINTS[name]
    with warnings.catch_warnings(), contextlib.ExitStack() as stack:
        warnings.simplefilter("error")
        for owner, attr in WORK:
            stack.enter_context(mock.patch.object(owner, attr, accepted))
        return fn(**{**kwargs, **replacement})


@pytest.mark.parametrize("name, param", CASES)
@given(value=st.one_of(ODD_SCALARS, ODD_ARRAYS))
@settings(max_examples=60, deadline=None)
def test_each_parameter_gives_a_valid_object_or_a_calibkit_error(name, param, value):
    try:
        call(name, **{param: value})
    except (CalibkitError, Accepted):
        pass


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_arguments_pass_every_check(name):
    try:
        call(name)
    except Accepted:
        pass


# Inputs that ended in a bare Python or numpy error, a RuntimeWarning, or
# silent acceptance before every check went through the three checkers.
PROBES = [
    ("LogitDataset.subset", {"indices": [0.9]}, InvalidInputError, "indices must be integers in [0, 3), got 0.9"),
    ("LogitDataset.subset", {"indices": [5]}, InvalidInputError, "indices must be integers in [0, 3), got 5"),
    ("BinaryDataset", {"y": [0.5, 1.9]}, InvalidInputError, "y must be integers in [0, 1], got 1.9"),
    ("HeteroLogitSpec", {"seed": -1}, ConfigError, "seed must be an integer in [0, inf), got -1"),
    ("HeteroLogitSpec", {"seed": 1.5}, ConfigError, "seed must be an integer in [0, inf), got 1.5"),
    ("HeteroLogitSpec", {"seed": "1"}, ConfigError, "seed must be an integer in [0, inf), got '1'"),
    ("HeteroLogitSpec", {"margin": "2"}, ConfigError, "margin must be a real number in (0, inf), got '2'"),
    ("HeteroLogitSpec", {"num_classes": 3.0}, ConfigError, "num_classes must be an integer in [2, inf), got 3.0"),
    ("HeteroLogitSpec", {"class_sizes": [True, 1, 1]}, ConfigError,
     "class_sizes must be integers in [0, inf), got True"),
    ("sample_dnoisy", {"n": 3.5}, ConfigError, "n must be an integer in [1, inf), got 3.5"),
    ("sample_dnoisy", {"n": True}, ConfigError, "n must be an integer in [1, inf), got True"),
    ("rare_atom_experiment", {"n": 10.5}, ConfigError, "n must be an integer in [10, inf), got 10.5"),
    ("rare_atom_experiment", {"trials": 1.5}, ConfigError, "trials must be an integer in [1, inf), got 1.5"),
    ("rare_atom_experiment", {"seed": -1}, ConfigError, "seed must be an integer in [0, inf), got -1"),
    ("RareAtomSpec", {"n": math.nan}, ConfigError, "n must be an integer in [10, inf), got nan"),
    ("run_sweep", {"trials": 2.5}, ConfigError, "trials must be an integer in [1, inf), got 2.5"),
    ("run_sweep n_val", {"test_records": 30.5}, ConfigError,
     "test_records must be an integer in [3, inf), got 30.5"),
    ("Temperature", {"alpha": "1"}, InvalidModelError, "alpha must be a real number in (0, inf), got '1'"),
    ("Temperature", {"alpha": True}, InvalidModelError, "alpha must be a real number in (0, inf), got True"),
    ("ClassWiseTemperature", {"gamma": "x"}, InvalidModelError, "gamma must be a real number in [0, inf], got 'x'"),
    ("FitConfig", {"gamma": "1"}, ConfigError, "gamma must be a real number in [0, inf], got '1'"),
    ("FitConfig", {"alpha_lo": True}, ConfigError, "alpha_lo must be a real number in (0, inf), got True"),
    ("NoisyBinarySpec", {"p_plus": "0.1"}, ConfigError, "p_plus must be a real number in [0, 0.5), got '0.1'"),
    ("Vector", {"scale": ["a"], "bias": [0]}, InvalidModelError,
     "scale must be real numbers in (-inf, inf), got 'a'"),
    ("fit_constrained_logistic", {"radius": math.inf}, ConfigError,
     "radius must be a real number in (0, inf), got inf"),
    ("fit_constrained_logistic", {"radius": math.nan}, ConfigError,
     "radius must be a real number in (0, inf), got nan"),
    ("BinningConfig", {"num_bins": 2**70}, ConfigError,
     "num_bins must be an integer in [1, 9007199254740992], got 1180591620717411303424"),
    ("optimal_noisy_classifier", {"p_plus": 0.0}, DegenerateNoiseError,
     "p_plus must be a real number in (0, 0.5), got 0.0"),
    ("NoisyBinarySpec", {"direction": [1.34078079e+154]}, ConfigError,
     "direction must be real numbers in [-1, 1], got 1.34078079e+154"),
    ("optimal_noisy_classifier", {"direction": [1.00331164e+308]}, ConfigError,
     "direction must be real numbers in [-1, 1], got 1.00331164e+308"),
    ("optimal_noisy_classifier", {"direction": [3.0]}, ConfigError,
     "direction must be real numbers in [-1, 1], got 3.0"),
    ("optimal_noisy_classifier", {"direction": [0.6, 0.6]}, ConfigError, "direction must have unit norm"),
    ("fit_constrained_logistic", {"counts": [1, 0.5]}, ConfigError, "counts must be integers in [0, inf), got 0.5"),
    ("fit_constrained_logistic", {"counts": [1, -1]}, ConfigError, "counts must be integers in [0, inf), got -1"),
    ("fit_constrained_logistic", {"counts": [1, 1, 1]}, ConfigError,
     "counts must be a 1-D array of length 2, got shape (3,)"),
    ("fit_constrained_logistic", {"counts": [0, 0]}, ConfigError, "counts must have a positive total, got [0, 0]"),
    ("gen_hetero_logits", {"splits": "val"}, ConfigError,
     "splits must be a sequence of names from ('train', 'val', 'test'), got 'val'"),
    ("gen_hetero_logits", {"splits": None}, ConfigError,
     "splits must be a sequence of names from ('train', 'val', 'test'), got None"),
    ("gen_hetero_logits", {"splits": ("val", "dev")}, ConfigError,
     "splits must be names from ('train', 'val', 'test'), got 'dev'"),
    ("gen_hetero_logits", {"splits": ["test", 1]}, ConfigError,
     "splits must be names from ('train', 'val', 'test'), got 1"),
    ("gen_hetero_logits", {"splits": ("val", "test", "val")}, ConfigError,
     "splits must name each split at most once, got 'val' twice"),
    ("gen_hetero_logits", {"splits": ()}, ConfigError, "splits must name at least one split, got ()"),
]


@pytest.mark.parametrize("name, replacement, error, message", PROBES)
def test_probe_raises_naming_field_and_value(name, replacement, error, message):
    with pytest.raises(error) as info:
        call(name, **replacement)
    assert str(info.value) == message


def test_largest_bin_count_indexes_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx = BinningConfig(2**53).bin_indices(np.array([0.0, 0.5, 1.0]))
    assert idx.tolist() == [0, 2**52 - 1, 2**53 - 1]


class TestCheckers:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint8(3), 2**70])
    def test_int_accepts_integers(self, value):
        assert check_int("n", value, ge=0) == int(value)
        assert type(check_int("n", value, ge=0)) is int

    @pytest.mark.parametrize("value, shown", [(True, "True"), (2.0, "2.0"), ("2", "'2'"), (np.bool_(False), "False"),
                                              (-1, "-1"), (np.int64(-1), "-1"), (None, "None")])
    def test_int_rejects(self, value, shown):
        with pytest.raises(ConfigError) as info:
            check_int("n", value, ge=0)
        assert str(info.value) == f"n must be an integer in [0, inf), got {shown}"

    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.25), np.int64(2), fractions.Fraction(1, 4), 2**70])
    def test_real_accepts_real_numbers(self, value):
        assert check_real("x", value, gt=0) == float(value)
        assert type(check_real("x", value, gt=0)) is float

    @pytest.mark.parametrize("value, shown", [(True, "True"), ("1", "'1'"), (math.nan, "nan"), (math.inf, "inf"),
                                              (0, "0"), (10**400, "1" + "0" * 400), (1j, "1j")])
    def test_real_rejects(self, value, shown):
        with pytest.raises(ConfigError) as info:
            check_real("x", value, gt=0)
        assert str(info.value) == f"x must be a real number in (0, inf), got {shown}"

    def test_real_admits_inf_only_when_the_upper_end_does(self):
        assert check_real("g", math.inf, ge=0, le=math.inf) == math.inf
        with pytest.raises(ConfigError, match=r"^g must be a real number in \[0, inf\], got nan$"):
            check_real("g", math.nan, ge=0, le=math.inf)
        with pytest.raises(ConfigError, match=r"^x must be a real number in \(-inf, inf\), got -inf$"):
            check_real("x", -math.inf)

    def test_array_casts_once_and_is_read_only(self):
        given_ = np.array([3, 1], dtype=np.int32)
        arr = check_array("a", given_, integer=True, ge=0)
        assert arr.dtype == np.int64 and arr.tolist() == [3, 1] and not arr.flags.writeable
        assert not np.shares_memory(arr, given_)
        assert check_array("a", [2.0, 0.0], integer=True).tolist() == [2, 0]
        assert check_array("a", np.array([1, 2], dtype=np.int8)).dtype == np.float64

    @pytest.mark.parametrize(
        "values, shown",
        [
            (np.array([True, False]), "True"),
            (np.array([1 + 0j]), "(1+0j)"),
            (np.array([1, "a"], dtype=object), "'a'"),
            ([1, True], "True"),
            ([0.5], "0.5"),
            ([np.nan], "nan"),
            ([1e30], "1e+30"),
            (np.array([2**64 - 1], dtype=np.uint64), "18446744073709551615"),
            ([[1], [1, 2]], "dtype('O')"),
        ],
    )
    def test_array_rejects(self, values, shown):
        with pytest.raises(ConfigError) as info:
            check_array("a", values, integer=True, ge=0)
        assert str(info.value) == f"a must be integers in [0, inf), got {shown}"

    def test_array_shape(self):
        with pytest.raises(InvalidInputError) as info:
            check_array("a", np.zeros((2, 2)), length=2, error=InvalidInputError)
        assert str(info.value) == "a must be a 1-D array of length 2, got shape (2, 2)"
        with pytest.raises(ConfigError, match=r"^a must be a 2-D array, got shape \(3,\)$"):
            check_array("a", [1.0, 2.0, 3.0], ndim=2)


# Command prefixes; each needs only the flag under test to fail.
CALIBRATE = ["calibrate", "--val", "v.csv", "--test", "t.csv", "--method", "ts", "--out-report", "r.json"]
RELIABILITY = ["reliability", "--file", "v.csv", "--out", "rel.csv"]
SYNTH = ["synth", "--kind", "hetero", "--seed", "1", "--out", "h.csv"]
SWEEP = ["sweep", "--axis", "noise", "--values", "0", "--seed", "1", "--out", "s.csv"]

# Not "--": argparse reads `--flag=--` as the end of the options, not as a value.
BAD_TOKENS = ["abc", "nan", "NaN", "0x10", "True", "1e", "-", "1.5.2", "١٢x"]
NOT_NUMBERS = st.sampled_from(BAD_TOKENS + ["", " ", "1,2"])


def ints_outside(lo, hi=None):
    """Flag texts an integer flag with range [lo, hi] rejects."""
    bad = [st.integers(max_value=lo - 1), st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda v: not v.is_integer())]
    if hi is not None:
        bad.append(st.integers(min_value=hi + 1))
    return st.one_of(NOT_NUMBERS, *(s.map(str) for s in bad), st.sampled_from(["inf", "-inf", "2.0", "1e3"]))


def reals_outside(lo, hi, lo_open, hi_open=True, not_numbers=NOT_NUMBERS):
    """Flag texts a real flag with the given interval rejects; hi=inf with hi_open=False admits inf."""
    bad = [st.floats(max_value=lo, allow_nan=False).filter(lambda v: v < lo or (lo_open and v == lo))]
    if hi_open or math.isfinite(hi):
        bad.append(st.floats(min_value=hi, allow_nan=False).filter(lambda v: v > hi or (hi_open and v == hi)))
    return st.one_of(not_numbers, *(s.map(repr) for s in bad))


def lists_outside(integer, lo, lo_open, hi=math.inf):
    """Comma-separated texts a list flag rejects: one bad entry after zero to two good ones."""
    entry = reals_outside(lo, hi, lo_open, not_numbers=st.sampled_from(BAD_TOKENS))
    if integer:
        entry = st.one_of(entry, st.floats(0.0, 1e6).filter(lambda v: not v.is_integer()).map(repr))
    return st.tuples(st.sampled_from(["", "1,", "1, 0,"]), entry).map("".join)


FLAGS = [
    (CALIBRATE, "--gamma", reals_outside(0, math.inf, False, hi_open=False)),
    (CALIBRATE, "--bins", ints_outside(1, 2**53)),
    (CALIBRATE, "--alpha-lo", reals_outside(0, math.inf, True)),
    (CALIBRATE, "--alpha-hi", reals_outside(0, math.inf, True)),
    (CALIBRATE, "--min-class-samples", ints_outside(0)),
    (RELIABILITY, "--bins", ints_outside(1, 2**53)),
    (SYNTH, "--seed", ints_outside(0)),
    (SYNTH, "--n", ints_outside(1)),
    (SYNTH, "--p-plus", reals_outside(0, 0.5, False)),
    (SYNTH, "--p-minus", reals_outside(0, 0.5, False)),
    (SYNTH, "--p-test", reals_outside(0, 0.5, False)),
    (SYNTH, "--dim", ints_outside(1)),
    (SYNTH, "--epsilon", reals_outside(0, 0.5, True)),
    (SYNTH, "--trials", ints_outside(1)),
    (SYNTH, "--classes", ints_outside(2)),
    (SYNTH, "--margin", reals_outside(0, math.inf, True)),
    (SYNTH, "--sizes", lists_outside(True, 0, False)),
    (SYNTH, "--scales", lists_outside(False, 0, True)),
    (SYNTH, "--noise", lists_outside(False, 0, False, hi=1)),
    (SWEEP, "--values", st.sampled_from(["abc", "", "0,x", "nan", "0,-inf", ","])),
    (SWEEP, "--trials", ints_outside(1)),
    (SWEEP, "--test-records", ints_outside(1)),
    (SWEEP, "--seed", ints_outside(0)),
    (SWEEP, "--classes", ints_outside(2)),
    (SWEEP, "--gamma", reals_outside(0, math.inf, False, hi_open=False)),
]


def never_read(*args, **kwargs):
    raise AssertionError("a file was read before the flags were checked")


@pytest.mark.parametrize("command, flag, texts", FLAGS, ids=[f"{c[0]}{f}" for c, f, _ in FLAGS])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bad_flag_exits_2_naming_it_before_any_file_is_read(tmp_path_factory, command, flag, texts, data):
    text = data.draw(texts, label="text")
    workdir = tmp_path_factory.mktemp("flags")
    argv = [str(workdir / a) if a.endswith((".csv", ".json")) else a for a in command] + [f"{flag}={text}"]
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error")
        stack.enter_context(contextlib.redirect_stderr(err))
        for attr in ("read_logit_csv", "read_json"):
            stack.enter_context(mock.patch.object(kio, attr, never_read))
        code = main(argv)
    message = err.getvalue()
    assert code == 2
    assert message.startswith(f"error: {flag} ") and message.count("\n") == 1 and message.endswith("\n")
    assert not list(workdir.iterdir())
