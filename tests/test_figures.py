"""Every point of the paper's figures, pinned.

``benchmarks/figures.py`` prices the compiled paper queries with
:class:`~repro.model.estimator.PlanEstimator`, whose MPC nodes are shape runs
of the executing protocols.  These are the series it produces; a change to
a protocol's steps, a price or a row estimate moves a point here.  ``None``
is a point the system does not finish (out of memory, or past the
two-hour budget).  The Fig. 7a point at 10 records is the one point a
shape run moved: its distinct runs on an empty relation, which charges
nothing.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "figures.py"
_SPEC = importlib.util.spec_from_file_location("figures", _PATH)
figures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(figures)

#: Figure -> (the call producing its series, the series).
SERIES = {
    "1a": (
        lambda: figures.series_fig1("sum"),
        [
            {
                "records": 10, "spark": 4.2000140833333335, "sharemind": 2.2076277820000003,
                "obliv-c": 2.2032894559999994,
            },
            {
                "records": 1000, "spark": 4.201416583333334, "sharemind": 2.6043597220000003,
                "obliv-c": 2.5368046159999995,
            },
            {
                "records": 100000, "spark": 4.341666583333334, "sharemind": 42.27755372199999,
                "obliv-c": 35.888320615999994,
            },
            {
                "records": 10000000, "spark": 18.366666583333338, "sharemind": 4009.5969537220003,
                "obliv-c": None,
            },
        ],
    ),
    "1b": (
        lambda: figures.series_fig1("project"),
        [
            {
                "records": 10, "spark": 4.200007500000001, "sharemind": 2.207796806,
                "obliv-c": 2.202575,
            },
            {"records": 1000, "spark": 4.2008325, "sharemind": 2.625445466, "obliv-c": 2.4575},
            {
                "records": 100000, "spark": 4.2833325, "sharemind": 44.39031146599999,
                "obliv-c": 27.949999999999996,
            },
            {
                "records": 10000000, "spark": 12.533332500000004, "sharemind": 4220.876911466001,
                "obliv-c": None,
            },
        ],
    ),
    "1c": (
        lambda: figures.series_fig1("join"),
        [
            {
                "records": 10, "spark": 4.20002, "sharemind": 2.2190008980000004,
                "obliv-c": 2.2199267999999996,
            },
            {
                "records": 1000, "spark": 4.2022200000000005, "sharemind": 39.848070618,
                "obliv-c": 163.353,
            },
            {"records": 100000, "spark": 4.422220000000001, "sharemind": None, "obliv-c": None},
            {"records": 10000000, "spark": 26.422220000000003, "sharemind": None, "obliv-c": None},
        ],
    ),
    "4": (
        lambda: figures.series_fig4(),
        [
            {
                "records": 10, "conclave": 7.305687045333334, "sharemind": 2.2647335720000004,
                "insecure-spark": 7.305682656444445,
            },
            {
                "records": 1000, "conclave": 7.306284045333333, "sharemind": 4.66863813,
                "insecure-spark": 7.305881656444444,
            },
            {
                "records": 100000, "conclave": 7.365904045333332, "sharemind": 651.913080618,
                "insecure-spark": 7.325754989777777,
            },
            {
                "records": 10000000, "conclave": 13.327904045333334, "sharemind": None,
                "insecure-spark": 9.313088323111113,
            },
            {
                "records": 1300000000, "conclave": 790.1945707120001, "sharemind": None,
                "insecure-spark": 268.26864387866664,
            },
        ],
    ),
    "5a": (
        lambda: figures.series_fig5_join(),
        [
            {
                "records": 10, "sharemind-join": 2.2161013219999997, "hybrid-join": 5.19213915,
                "public-join": 5.15852782,
            },
            {
                "records": 1000, "sharemind-join": 30.508447999999998,
                "hybrid-join": 6.9564509999999995, "public-join": 5.606782000000001,
            },
            {
                "records": 10000, "sharemind-join": 2793.32348, "hybrid-join": 26.98575,
                "public-join": 9.68182,
            },
            {
                "records": 200000, "sharemind-join": None, "hybrid-join": 525.5368000000001,
                "public-join": 95.7104,
            },
            {
                "records": 2000000, "sharemind-join": None, "hybrid-join": 5845.783,
                "public-join": 910.7179999999998,
            },
        ],
    ),
    "5b": (
        lambda: figures.series_fig5_agg(),
        [
            {"records": 10, "sharemind-agg": 2.2527305979999994, "hybrid-agg": 5.172793847333333},
            {"records": 1000, "sharemind-agg": 4.546404586, "hybrid-agg": 5.871780755333333},
            {"records": 10000, "sharemind-agg": 58.138118986, "hybrid-agg": 12.178187155333335},
            {"records": 100000, "sharemind-agg": 642.405817546, "hybrid-agg": 75.22189115533332},
        ],
    ),
    "6": (
        lambda: figures.series_fig6(),
        [
            {"records": 10, "conclave": 7.327653015999999, "sharemind": 2.25044723},
            {"records": 1000, "conclave": 8.928109924000001, "sharemind": 28.211620898000003},
            {"records": 3000, "conclave": 12.513039648666666, "sharemind": 228.32366741000004},
            {"records": 30000, "conclave": 67.88428968866668, "sharemind": None},
            {"records": 300000, "conclave": 707.9248524886666, "sharemind": None},
        ],
    ),
    "7a": (
        lambda: figures.series_fig7_aspirin(),
        [
            {"records": 10, "conclave": 5.171001188666667, "smcql": 10.00008},
            {"records": 1000, "conclave": 6.062290424666667, "smcql": 28.2191936},
            {"records": 40000, "conclave": 40.97584020666667, "smcql": 738.767744},
            {"records": 400000, "conclave": 363.9548092306666, "smcql": None},
            {"records": 4000000, "conclave": 3596.8891135506665, "smcql": None},
        ],
    ),
    "7b": (
        lambda: figures.series_fig7_comorbidity(),
        [
            {"records": 10, "conclave": 5.164068964666667, "smcql": 10.906843456},
            {"records": 1000, "conclave": 5.838458456666668, "smcql": 21.569218048},
            {"records": 10000, "conclave": 12.179793936666666, "smcql": 167.925511936},
            {"records": 100000, "conclave": 153.38227577666666, "smcql": 4543.501443327999},
        ],
    ),
}


@pytest.mark.parametrize("figure", SERIES)
def test_every_point_of_the_figure(figure):
    series, expected = SERIES[figure]
    got = series()
    assert [row.keys() for row in got] == [row.keys() for row in expected]
    for got_row, row in zip(got, expected):
        for system, seconds in row.items():
            point = (row["records"], system)
            if seconds is None:
                assert got_row[system] is None, point
            else:
                assert got_row[system] == pytest.approx(seconds, rel=1e-12), point
