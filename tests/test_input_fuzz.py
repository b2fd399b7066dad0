"""The input boundary, fuzzed.

Every public constructor, the regret ceiling and the numeric flags of
``run`` and ``bound`` get odd values: ints and Fractions past float64, every
numpy scalar type, bools, NaN, +-inf, -0.0, strings, 0-d, 1-d and object
arrays.  Each call either returns a valid object or raises a ValueError
that names the argument; the CLI exits 0 or 2.  No other exception type and
no warning may escape.  Every knob meets each listed value once, then
hypothesis draws more (floats, small ints, Fractions); the draws are
derandomized, so every run makes the same ones.
"""

import contextlib
import io
import math
import numbers
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgecache.bench import PAPER_DEFAULTS, ExperimentSpec, regret_bound_terms, theorem_cost
from edgecache.cli import main
from edgecache.model import ArrivalTrace, CostModel, save_trace
from edgecache.rosc import RoscConfig
from edgecache.sampler import rng_stream
from edgecache.workloads import (PoissonParams, PredictionOracle,
                                 ReplacementParams, SqrtChurnParams, gen_poisson,
                                 gen_replacement, gen_sqrt_churn)

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

# every numpy scalar type, from values that never make a large size
NUMPY_TYPES = (np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8,
               np.uint16, np.uint32, np.uint64, np.float16, np.float32,
               np.float64, np.longdouble, np.complex64, np.complex128,
               np.clongdouble)
SEEDS = (-3, -1, 0, 1, 2, 3, 0.5, 2.5, math.nan, math.inf, -math.inf, -0.0, 1e300)


def _numpy_scalars():
    """Each type cast from each seed it holds as is (or truncates, 2.5 to 2):
    an int type never gets NaN or 1e300, whose casts are undefined and may
    come out as a size of 2**31 or more, nor an unsigned type a negative seed."""
    for kind in NUMPY_TYPES:
        for seed in SEEDS:
            if np.issubdtype(kind, np.inexact) or (
                    math.isfinite(seed) and abs(seed) < 10
                    and (seed >= 0 or not np.issubdtype(kind, np.unsignedinteger))):
                with np.errstate(over="ignore"):     # 1e300 as float16 is inf
                    yield np.array(seed).astype(kind)[()]


ODD = [
    True, False, np.True_, None, "1", "", "nan", b"1", 1j, 1 + 0j,
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300,
    2**63, 2**64, 10**400, -10**400, Fraction(10**400), Fraction(-10**400, 3),
    Fraction(1, 3), Fraction(-7, 2),
    np.array(0.5), np.array(2), np.array([0.5]), np.array([1, 2]), np.array([[3]]),
    np.array([10**400], dtype=object), np.array([0.5], dtype=object),
    np.array(0.5, dtype=object), [1], (2,), {},
    np.datetime64(3, "D"), np.timedelta64(3, "s"), np.timedelta64(1, "D"),
    np.str_("2"), np.bytes_(b"2"),
]
NUMPY_SCALARS = list(_numpy_scalars())
VALUES = st.one_of(
    st.sampled_from(ODD + NUMPY_SCALARS),
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)


def _outcome(call, name):
    """``call()`` with every warning an error: its result, or None when it
    raises a ValueError whose message names ``name`` as a word."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError as exc:
            assert re.search(rf"(^|\W){re.escape(name)}(\W|$)", str(exc)), \
                f"{name!r} not named in {exc!r}"
            return None


def _is_real(value, low=-math.inf):
    """A finite real scalar of at least ``low``, kept as it was given."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and low <= value)


def _is_count(value, low=-math.inf):
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value <= np.iinfo(np.int64).max)


def _valid_cost(cost):
    assert _is_real(cost.alpha) and cost.alpha > 0
    assert _is_real(cost.gamma) and 0 < cost.gamma < 1
    assert cost.beta.dtype == np.float64 and cost.beta.ndim == 1
    assert np.isfinite(cost.beta).all() and (cost.beta > 0).all()
    assert not cost.beta.flags.writeable
    assert _is_count(cost.M, 1) and cost.M <= cost.beta.size


COST = dict(alpha=0.05, beta=np.full(4, 10.0), M=2, gamma=0.05)


def check_cost_model(field, value):
    cost = _outcome(lambda: CostModel(**{**COST, field: value}), field)
    if cost is not None:
        _valid_cost(cost)


# a value alone, as an entry of a list, and in an object array
FORMS = {"alone": lambda v: v, "listed": lambda v: [10.0, v],
         "object": lambda v: np.array([10.0, v], dtype=object)}


def check_beta(form, value):
    cost = _outcome(lambda: CostModel(alpha=0.05, beta=FORMS[form](value), M=1), "beta")
    if cost is not None:
        _valid_cost(cost)


def check_uniform(field, value):
    args = {"alpha": 0.05, "beta_star": 10.0, "n_services": 4, "M": 1, "gamma": 0.05,
            field: value}
    cost = _outcome(lambda: CostModel.uniform(**args), field)
    if cost is not None:
        _valid_cost(cost)


def _valid_trace(trace):
    assert trace.lam.dtype == np.float64 and trace.lam.ndim == 2
    assert np.isfinite(trace.lam).all() and (trace.lam >= 0).all()
    assert trace.U is None or (_is_real(trace.U, 0) and trace.U >= trace.max_slot_total())


def check_trace(form, value):
    if form == "U":
        trace = _outcome(lambda: ArrivalTrace(lam=[[1.0, 2.0]], U=value), "U")
    else:   # lam's entry (1, 1), or a second row of its own
        lam = [[1.0], [value]] if form == "row" else [FORMS[form](value)]
        trace = _outcome(lambda: ArrivalTrace(lam=lam), "lam")
    if trace is not None:
        _valid_trace(trace)


TRACE = ArrivalTrace(lam=np.arange(12.0).reshape(3, 4))


def check_oracle(field, value):
    kwargs = {"R": 0.1, "seed": 0, field: value}
    oracle = _outcome(lambda: PredictionOracle(TRACE, **kwargs), field)
    if oracle is not None:
        assert type(oracle.R) is float and oracle.R >= 0 and type(oracle.seed) is int


def check_rosc_config(field, value):
    kwargs = {"W": 2, "K": 5, "seed": 0, field: value}
    config = _outcome(lambda: RoscConfig(cost=CostModel(**COST), **kwargs), field)
    if config is not None:
        assert _is_count(config.W, 0) and _is_count(config.K, 1)
        assert isinstance(config.seed, (int, np.integer))


BOUND_ARGS = {"N": 40, "T": 2000, "U": 150.0, "K": 50, "W": 5, "H_T": 60.0}
BOUND_COST = CostModel.uniform(0.05, 10.0, 40, 5)


def check_regret_bound_terms(field, value):
    terms = _outcome(lambda: regret_bound_terms(BOUND_COST, **{**BOUND_ARGS, field: value}),
                     field)
    if terms is not None:
        assert all(type(v) is float and v >= 0 for v in terms.values())  # inf, never NaN


def check_theorem_cost(field, value):
    args = {"H_T": 6.0, "T": 20, field: value}
    cost = _outcome(lambda: theorem_cost(CostModel(**COST), **args), field)
    if cost is not None:
        _valid_cost(cost)


SPEC_FIELDS = {  # fuzzed knob -> the ExperimentSpec arguments that carry it
    "jobs": lambda v: {"jobs": v},
    "R": lambda v: {"axis": "R", "values": [0.0, v]},
    "base R": lambda v: {"base": dict(PAPER_DEFAULTS, R=v)},
    "seed": lambda v: {"seeds": [0, v]},
    "M": lambda v: {"axis": "M", "values": [v]},
    "W": lambda v: {"axis": "W", "values": [3, v]},
}


def check_spec(field, value):
    args = dict(workload="replacement", workload_params={"N": 12, "T": 10}, seeds=[0],
                policies=["rosc"])
    spec = _outcome(lambda: ExperimentSpec(**{**args, **SPEC_FIELDS[field](value)}),
                    field.split()[-1])
    if spec is not None:
        assert _is_count(spec.jobs, 1)
        assert all(type(seed) is int for seed in spec.seeds)
        if spec.axis in ("M", "W"):
            assert all(type(v) is int for v in spec.values)


def check_rng_stream(field, value):
    rng = _outcome(lambda: rng_stream(value, "fuzz"), field)
    if rng is not None:     # any integer, its stream that of the int it is
        assert rng.integers(2**62, size=4).tolist() == \
            rng_stream(int(value), "fuzz").integers(2**62, size=4).tolist()


# each generator on parameters it takes, for its seed
GENERATORS = {
    "gen_replacement": (gen_replacement, ReplacementParams(N=6, T=4, thinning=0.5)),
    "gen_poisson": (gen_poisson, PoissonParams(N=6, T=4, groups=((2, 1.0),))),
    "gen_sqrt_churn": (gen_sqrt_churn, SqrtChurnParams(N=6, T=4, M=2)),
}


def check_generator_seed(name, value):
    generate, params = GENERATORS[name]
    trace = _outcome(lambda: generate(params, value), "seed")
    if trace is not None:
        _valid_trace(trace)
        assert trace.lam.tobytes() == generate(params, int(value)).lam.tobytes()


# class -> (sizes it is built with, its count fields, its real fields)
PARAMS = {
    ReplacementParams: ({"N": 10, "T": 20}, ("N", "T", "U", "num_ranks"),
                        ("zipf_exponent", "rank_lifetime_mean", "thinning")),
    PoissonParams: ({"N": 10, "T": 20}, ("N", "T"),
                    ("per_service_volume", "popularity_shape")),
    SqrtChurnParams: ({"N": 20, "T": 16, "M": 1}, ("N", "T", "M", "U"),
                      ("zipf_exponent", "blips_per_sqrt")),
}


def _check_params(cls):
    sizes, counts, reals = PARAMS[cls]

    def check(field, value):
        params = _outcome(lambda: cls(**{**sizes, field: value}), field)
        if params is not None:
            assert all(_is_count(getattr(params, name)) for name in counts
                       if getattr(params, name) is not None)
            assert all(_is_real(getattr(params, name)) or getattr(params, name) == math.inf
                       for name in reals if getattr(params, name) is not None)
    return check, counts + reals


GROUPS = {"alone": lambda v: v, "lifetime": lambda v: ((v, 0.1),),
          "rate": lambda v: ((10, v),), "both": lambda v: [[v, v]],
          "triple": lambda v: ((10, 0.1, v),)}


def check_groups(form, value):
    _outcome(lambda: PoissonParams(N=10, T=20, groups=GROUPS[form](value)), "groups")


# each check and the fields (or forms) it takes a value for
KNOBS = {
    "CostModel": (check_cost_model, ("alpha", "M", "gamma")),
    "CostModel.beta": (check_beta, tuple(FORMS)),
    "CostModel.uniform": (check_uniform, ("alpha", "beta_star", "n_services", "M", "gamma")),
    "ArrivalTrace": (check_trace, ("alone", "listed", "object", "row", "U")),
    "PredictionOracle": (check_oracle, ("R", "seed")),
    "RoscConfig": (check_rosc_config, ("W", "K", "seed")),
    "regret_bound_terms": (check_regret_bound_terms, tuple(BOUND_ARGS)),
    "theorem_cost": (check_theorem_cost, ("H_T", "T")),
    "ExperimentSpec": (check_spec, tuple(SPEC_FIELDS)),
    "rng_stream": (check_rng_stream, ("seed",)),
    "generators": (check_generator_seed, tuple(GENERATORS)),
    **{cls.__name__: _check_params(cls) for cls in PARAMS},
    "PoissonParams.groups": (check_groups, tuple(GROUPS)),
}


@pytest.mark.parametrize("knob", list(KNOBS))
def test_every_listed_value_on_every_knob(knob):
    check, fields = KNOBS[knob]
    for field in fields:
        for value in ODD + NUMPY_SCALARS:
            check(field, value)


@FUZZ
@given(knob=st.sampled_from([(check, field) for check, fields in KNOBS.values()
                             for field in fields]),
       value=VALUES)
def test_drawn_values_on_every_knob(knob, value):
    check, field = knob
    check(field, value)


# the numeric flags as text: every odd value above has a spelling here
TEXTS = ["nan", "inf", "-inf", "-0.0", "-0", "0", "1", "2", "3", "0.5", "2.5",
         "-1", "1" + "0" * 400, "1e400", "-1e400", "1/3", "True", "abc", "",
         "[1, 2]", "1+0j", "0x10", " 2 ", "1_0", "3.0"]


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    save_trace(ArrivalTrace(lam=np.arange(24.0).reshape(6, 4) % 5), path)
    return path


RUN_FLAGS = ["alpha", "ratio", "M", "W", "K", "gamma", "R", "W-big", "seed", "beta-star"]
RUN_POLICIES = ["rosc", "rhc", "pseudo-opt"]


def _run(trace_file, policy, flags):
    argv = ["run", "--policy", policy, "--trace", str(trace_file), "--M", "2",
            "--W", "2", "--K", "5", "--W-big", "3", "--out", str(trace_file.parent / "run")]
    return _exit_code(argv + [f"--{flag}={text}" for flag, text in flags.items()])


@pytest.mark.parametrize("flag", RUN_FLAGS)
def test_every_text_on_every_run_flag(trace_file, flag):
    for i, text in enumerate(TEXTS):
        assert _run(trace_file, RUN_POLICIES[i % 3], {flag: text}) in (0, 2), text


@settings(FUZZ, max_examples=60)
@given(policy=st.sampled_from(RUN_POLICIES),
       flags=st.dictionaries(st.sampled_from(RUN_FLAGS), st.sampled_from(TEXTS),
                             min_size=2, max_size=4))
def test_drawn_texts_on_run_flags(trace_file, policy, flags):
    assert _run(trace_file, policy, flags) in (0, 2)


BOUND_FLAGS = {"alpha": "0.05", "beta-star": "10", "M": "2", "N": "10", "T": "100",
               "U": "50", "K": "10", "W": "2", "HT": "5"}


def _bound(flags):
    return _exit_code(["bound"] + [f"--{flag}={text}"
                                   for flag, text in {**BOUND_FLAGS, **flags}.items()])


@pytest.mark.parametrize("flag", list(BOUND_FLAGS))
def test_every_text_on_every_bound_flag(flag):
    for text in TEXTS:
        assert _bound({flag: text}) in (0, 2), text


@settings(FUZZ, max_examples=100)
@given(flags=st.dictionaries(st.sampled_from(list(BOUND_FLAGS)), st.sampled_from(TEXTS),
                             min_size=2, max_size=4))
def test_drawn_texts_on_bound_flags(flags):
    assert _bound(flags) in (0, 2)
