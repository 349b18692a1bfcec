"""No input ends in a traceback: a property test over the whole input domain.

Every config file the schema can be handed, however extreme, ends in exit
0 (results), 2 (a rule refused an input; no CSV is written) or 3 (the
physics or numerics have no answer).  Exit 1 is a defect, and so is any
RuntimeWarning, which the suite turns into an error.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steerdist.cli import main
from steerdist.config import _SCHEMA

# each drawn file runs every analytic subcommand, then one of these: the
# slower selfcheck, or a Monte Carlo run at the 10,000-sample floor, one
# chunk, so that any threads value starts one worker
ANALYTIC = ["fig3a", "fig3b", "regions-c", "regions-d", "fig4", "fig-s1", "fig-s2", "fig-s4",
            "table-s1"]
EXTRA = [["selfcheck"], ["fig3a", "--mode", "both"], ["fig3b", "--mode", "monte_carlo"],
         ["fig4", "--mode", "both"], ["fig-s2", "--mode", "monte_carlo"],
         ["fig-s4", "--mode", "monte_carlo"]]

EXTREMES = ["0", "-0.0", "1e-300", "-1e-300", "5e-324", "-5e-324", "1e-310", "2.2e-308",
            "1e300", "-1e300", "1e200", "1e154", "1.7976931348623157e308",
            "1e50", "-1e50", "1.0000000000000002e50", "1.0000000000000002",
            "500", "-500", "500.00000000001", "3000", "-3000",
            "nan", "inf", "-inf", "NaN", "Infinity",
            str(10**400), str(-10**400), "18446744073709551617", "abc", "", "1e", "0x10",
            "1,2"]
# a value each key's rule accepts, so that the other keys reach the algebra
TYPICAL = {
    "state.squeeze_db": ["-4.2", "-6", "-0.5"], "state.antisqueeze_db": ["7.3", "6", "0.5"],
    "channel.excess_noise": ["0.12", "0"], "channel.noise_model": ["fixed", "loss_scaled"],
    "filter.gain": ["1", "1.2", "1.5"], "filter.cutoff": ["4.5", "0.5", "40"],
    "filter.cutoff_source": ["table", "config", "search"],
    "run.mode": ["analytic", "both"], "run.samples": ["10000"], "run.seed": ["7"],
    "run.threads": ["1", "2"], "run.out": ["out"], "run.svg": ["true", "false"],
    "grids.loss_grid": ["0,0.5", "0.2,0.98", "0:1:0.5"],
    "grids.g_grid": ["1,1.2", "1.1,1.5", "1:1.25:0.125"],
    "grids.fig4_g_grid": ["1,1.3", "1.2,1.56", "1:1.5:0.25"],
}
GRID_EXTREMES = ["", ",", "nan,1", "0,inf", "0:inf:1", "0:1:0", "1:0:0.5", "0:1:1e-300",
                 "1e300:1e308:1e300"]


@st.composite
def _values(draw, where):
    value = draw(st.one_of(
        st.sampled_from(TYPICAL[where]),
        st.sampled_from(EXTREMES + (GRID_EXTREMES if where.startswith("grids.") else [])),
        st.floats().map(repr), st.integers().map(str)))
    if where.startswith("grids.") and draw(st.booleans()):  # a 2-point grid with it
        value = f"{draw(st.sampled_from(TYPICAL[where])).split(',')[0]},{value}"
    return value


@st.composite
def config_files(draw):
    """The bytes of an INI file over a few of the schema's keys, on 2-point
    grids unless a grid is drawn, with a duplicate key or a non-UTF-8 byte
    now and then."""
    keys = draw(st.lists(st.sampled_from(sorted(_SCHEMA)), max_size=5, unique=True))
    values = {where: draw(_values(where)) for where in keys}
    for name, text in (("loss_grid", "0,0.5"), ("g_grid", "1,1.2"), ("fig4_g_grid", "1,1.3")):
        values.setdefault(f"grids.{name}", text)
    sections: dict = {}
    for where, value in values.items():
        section, key = where.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    if draw(st.integers(0, 9)) == 0:
        sections["run"] = sections.get("run", []) + ["seed = 1", "seed = 2"]
    text = "".join(f"[{s}]\n" + "".join(f"{line}\n" for line in lines)
                   for s, lines in sections.items()).encode()
    if draw(st.integers(0, 9)) == 0:
        text += b"[run]\nout = a\xff\xfeb\n"
    return text


def run_all(data: bytes, extra: list) -> None:
    """Every analytic subcommand and ``extra`` on the config file ``data``:
    each exits 0, 2 or 3, and exit 2 writes no CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "wb") as fh:
            fh.write(data)
        runs = [[command, "--mode", "analytic"] for command in ANALYTIC]
        for k, argv in enumerate([*runs, [*extra, "--samples", "10000"]]):
            out = os.path.join(tmp, str(k))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*argv, "--config", path, "--out", out])
            assert code in (0, 2, 3), (argv, err.getvalue())
            if code == 2:
                assert not os.path.exists(out), (argv, err.getvalue())


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=config_files(), extra=st.sampled_from(EXTRA))
def test_every_config_file_exits_0_2_or_3(data, extra):
    run_all(data, extra)
