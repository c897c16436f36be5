"""Out-of-domain parameters never leak: NaN, +-inf or a value just outside the
domain, put into one parameter of a public function, raises DomainError naming
that parameter, and every numeric flag of the command line turns it into an
error exit with nothing on stdout."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsquash import bounds, entropics, fock, states
from cvsquash.cli import main
from cvsquash.entropics import G_MAX, ChannelParam
from cvsquash.errors import DomainError, finite

nan, inf = math.nan, math.inf


def outside(lo, hi=None):
    """NaN, +-inf and floats below lo or, when hi is given, above hi."""
    above = st.just(inf) if hi is None else st.floats(min_value=math.nextafter(hi, inf))
    return st.just(nan) | st.floats(max_value=math.nextafter(lo, -inf)) | above


OUTSIDE = {
    "gain": outside(1.0),
    "gain above 1": outside(math.nextafter(1.0, 2.0)),
    "energy": outside(0.0),
    "unit interval": outside(0.0, 1.0),
    "entropy": outside(0.0, G_MAX),
    "finite": st.sampled_from([nan, inf, -inf]),
    "cutoff": st.integers(max_value=1) | st.sampled_from([nan, inf, -inf, 10.5]),
}

ATTENUATOR = ChannelParam.attenuator(0.5)
AMPLIFIER = ChannelParam.amplifier(2.0)
RNG = np.random.default_rng(0)

SQUEEZING_GAIN = ("gain", "squeezing gain")
AMPLIFIER_GAIN = ("gain", "amplifier gain")
MEAN_ENERGY = ("energy", "mean energy")
ETA = ("unit interval", "transmissivity")
ENTROPY = ("entropy", "entropy")
COND_ENTROPY = ("finite", "conditional entropy")
CUTOFF = ("cutoff", "cutoff")

#: (function, valid arguments, (kind, name in the message) of each argument or
#: None where the argument is not a checked parameter)
FUNCTIONS = [
    (ChannelParam.attenuator, (0.5,), [("unit interval", "attenuator transmissivity")]),
    (ChannelParam.amplifier, (2.0,), [AMPLIFIER_GAIN]),
    (entropics.g, (1.0,), [MEAN_ENERGY]),
    (entropics.g_inverse, (1.0,), [ENTROPY]),
    (entropics.psi, (2.0, 1.0, 0.5), [SQUEEZING_GAIN, MEAN_ENERGY, ETA]),
    (entropics.psi_second_derivative, (2.0, 1.0, 0.5), [SQUEEZING_GAIN, MEAN_ENERGY, ETA]),
    (entropics.gap_f, (2.0, 1.0), [SQUEEZING_GAIN, MEAN_ENERGY]),
    (entropics.h, (2.0, 1.0), [SQUEEZING_GAIN, MEAN_ENERGY]),
    (entropics.moe_amplifier, (2.0, 1.0), [AMPLIFIER_GAIN, ENTROPY]),
    (entropics.moe_complement, (2.0, 1.0), [AMPLIFIER_GAIN, ENTROPY]),
    (entropics.cond_epi_rhs, (2.0, 0.5), [AMPLIFIER_GAIN, COND_ENTROPY]),
    (entropics.cmi_cosh_lower, (2.0, 0.5), [AMPLIFIER_GAIN, COND_ENTROPY]),
    (bounds.esq_bounds_tms, (2.0, 1.0), [SQUEEZING_GAIN, MEAN_ENERGY]),
    (bounds.classical_esq, (2.0, 1.0), [SQUEEZING_GAIN, MEAN_ENERGY]),
    (bounds.separation_check, (2.0, 1.0), [SQUEEZING_GAIN, MEAN_ENERGY]),
    (bounds.find_E_kappa, (2.0,), [("gain above 1", "squeezing gain")]),
    (bounds.tms_equivalent_params, (ATTENUATOR, 1.0), [None, MEAN_ENERGY]),
    (bounds.esq_bounds_channel_state, (AMPLIFIER, 1.0), [None, MEAN_ENERGY]),
    (states.thermal_state, (1.0,), [MEAN_ENERGY]),
    (states.tms_thermal_state, (2.0, 1.0), [SQUEEZING_GAIN, MEAN_ENERGY]),
    (states.gamma_attenuated, (0.5, 1.0), [ETA, MEAN_ENERGY]),
    (states.gamma_amplified, (2.0, 1.0), [AMPLIFIER_GAIN, MEAN_ENERGY]),
    (states.attenuated_tmsv_cov, (0.5, 1.0), [ETA, MEAN_ENERGY]),
    (states.extension_family, (2.0, 1.0, 0.5), [SQUEEZING_GAIN, MEAN_ENERGY, ETA]),
    (fock.geometric_tail, (1.0, 8), [MEAN_ENERGY, CUTOFF]),
    (fock.required_cutoff, (1.0,), [MEAN_ENERGY]),
    (fock.check_cutoff, (8, 0.01), [CUTOFF, MEAN_ENERGY]),
    (fock.thermal_fock, (1.0, 8), [MEAN_ENERGY, CUTOFF]),
    (fock.oracle_cmi, (1.001, 0.001, 0.5, 8), [SQUEEZING_GAIN, MEAN_ENERGY, ETA, CUTOFF]),
    (fock.oracle_lost_norm, (2.0, 1.0, 0.5, 8), [SQUEEZING_GAIN, MEAN_ENERGY, ETA, CUTOFF]),
    (fock.random_one_mode_state, (RNG, 12), [None, CUTOFF]),
]

PARAMETERS = [
    pytest.param(fn, args, index, kind, name, id=f"{fn.__qualname__}-{name}")
    for fn, args, checked in FUNCTIONS
    for index, (kind, name) in ((i, c) for i, c in enumerate(checked) if c is not None)
]


@pytest.mark.parametrize("fn, args, index, kind, name", PARAMETERS)
@given(data=st.data())
@settings(derandomize=True, max_examples=12, deadline=None)
def test_bad_parameter_is_domain_error(fn, args, index, kind, name, data):
    for bad in (nan, inf, -inf, data.draw(OUTSIDE[kind], label=name)):
        with pytest.raises(DomainError) as err:
            fn(*args[:index], bad, *args[index + 1:])
        assert str(err.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("fn, args", [(fn, args) for fn, args, _ in FUNCTIONS],
                         ids=[fn.__qualname__ for fn, _, _ in FUNCTIONS])
def test_valid_arguments_pass(fn, args):
    fn(*args)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


#: one valid command line of each family, each numeric flag with its value
COMMANDS = [
    ["bounds", "tms", "--kappa", "2", "--energy", "1", "--precision", "12"],
    ["bounds", "attenuator", "--eta", "0.5", "--energy", "1"],
    ["bounds", "amplifier", "--kappa", "2", "--energy", "1"],
    ["channel", "attenuator", "--eta", "0.5", "--precision", "12"],
    ["channel", "amplifier", "--kappa", "2"],
    ["figure1", "--kappas", "1.5,2", "--e-min", "0", "--e-max", "1", "--steps", "5",
     "--precision", "12"],
    ["oracle", "cmi", "--kappa", "1.001", "--energy", "0.001", "--eta", "0.5", "--cutoff", "8",
     "--precision", "12"],
    ["oracle", "channel", "--kind", "att", "--param", "0.5", "--energy", "0.001",
     "--cutoff", "8"],
    ["oracle", "channel", "--kind", "amp", "--param", "1", "--energy", "0.001", "--cutoff", "8"],
    ["oracle", "channel", "--kind", "comp", "--param", "1", "--energy", "0.001",
     "--cutoff", "8"],
]

FLAGS = [
    pytest.param(argv, i, value, id=f"{' '.join(argv[:2])} {argv[i]}={value}")
    for argv in COMMANDS
    for i, token in enumerate(argv)
    if token.startswith("--") and token != "--kind"
    for value in ("nan", "inf")
]


def test_finite_passes_its_value_through():
    value = np.array([1.0, -1e308])
    assert finite("x", value, x=value) is value
    assert finite("x", 1e308, x=1.0) == 1e308
    assert finite("x", np.float64(-2.0)) == -2.0


@pytest.mark.parametrize("value", [inf, -inf, nan, np.array(nan)])
def test_finite_refuses_a_bad_scalar(value):
    with pytest.raises(DomainError, match=r"^a b overflows at a = 3, b = 4$"):
        finite("a b", value, a=3.0, b=4.0)


def test_finite_names_the_first_bad_entry():
    # the params broadcast against the value
    with pytest.raises(DomainError, match=r"^x overflows at a = 3, b = 5$"):
        finite("x", np.array([[1.0, nan, inf]]), a=3.0, b=np.array([4.0, 5.0, 6.0]))


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_valid_command_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("argv, flag, value", FLAGS)
def test_non_finite_flag_is_an_error_exit(capsys, argv, flag, value):
    argv = list(argv)
    argv[flag + 1] = value
    code, out, err = run(capsys, argv)
    assert code in (2, 3)
    assert out == ""
    assert "error:" in err
