import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, strategies as st

import selfsimspec as ss
from selfsimspec.cli import main as cli_main


@st.composite
def param_tuples(draw):
    """Valid (a, d, beta1, beta2) tuples away from the degenerate edges."""
    a = draw(st.floats(0.1, 0.9))
    d = draw(st.floats(-1.05, 1.05))
    assume(abs(d) > 0.05)
    assume(a * d * d < 0.98)
    beta1 = draw(st.floats(-2.0, 2.0))
    beta2 = draw(st.floats(-2.0, 2.0))
    assume(abs(d * beta1 + beta2 - beta1) > 1e-3)
    return a, d, beta1, beta2


@st.composite
def valid_params(draw):
    return ss.make_params(*draw(param_tuples()))


@st.composite
def contraction_params(draw, edge=0.95):
    """The contraction domain: a in (0.05, edge), a*d^2 < edge, either sign of d."""
    a = draw(st.floats(0.05, edge, exclude_min=True, exclude_max=True))
    s = draw(st.floats(0.02, edge, exclude_max=True))
    d = draw(st.sampled_from((-1.0, 1.0))) * math.sqrt(s / a)
    beta1 = draw(st.floats(-1.0, 1.0))
    beta2 = draw(st.floats(-1.0, 2.0))
    assume(abs(d * beta1 + beta2 - beta1) >= 0.1)
    return ss.make_params(a, d, beta1, beta2)


def canonical(sign=1.0):
    """The worked example: a = d = 1/2 (d = -1/2 for the indefinite twin)."""
    return ss.make_params(0.5, math.copysign(0.5, sign), 0.0, 1.0)


def run_cli(*argv):
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()
