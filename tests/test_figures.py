"""Every point of the paper's figures, pinned.

``benchmarks/figures.py`` prices the compiled paper queries with
:class:`~repro.model.estimator.PlanEstimator`: one run of the executor on
row counts, the same code and charges as an execution.  These are the
series it produces; a change to a protocol's steps, an engine's charges, a
price or a row estimate moves a point here.  ``None`` is a point the system
does not finish (out of memory, or past the two-hour budget).

When the estimate became that run, every family moved, each for a cause in
the engines it now runs:

* Spark cleartext points (Fig. 1 ``spark``, Fig. 4 ``conclave`` and
  ``insecure-spark``, Fig. 7b): +1.9 s at small sizes, because a ``Create``
  is an engine ``ingest`` (a 4 s job), not a 1.05 s stage.
* Hybrid-join, public-join and hybrid-aggregate points (Figs. 5, 6, 7a):
  +6 to +22 s at small sizes, because each STP enumeration is an ``ingest``.
* Sharemind-only and Obliv-C points: -0.1 s at small sizes, because the
  Python start-up is paid once per engine, not once per node; up to -13 s
  at 10 M rows, because an ``ingest`` reads no records and an output's
  ``Collect`` runs no operator pass.
* Large cleartext points take the engine's tally: a wide operator charges
  the rows it reads, not its input plus its output, so Fig. 4 at 1.3 B
  rows drops (Conclave 790 -> 684 s, insecure Spark 268 -> 234 s).
* Figs. 5 and 7: the plans' own parties price the MPC — two computing
  parties, not the former default three — and the merge of per-party
  partials is estimated as the partials over two parties, so Fig. 7b at
  100 000 rows sorts 10 000 merged rows, not 6 666 (+30.5 s).
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
                "records": 10, "spark": 6.1000119999999995, "sharemind": 2.1076237820000006,
                "obliv-c": 2.1032834560000007,
            },
            {
                "records": 1000, "spark": 6.101331999999999, "sharemind": 2.504025722,
                "obliv-c": 2.436303616,
            },
            {
                "records": 100000, "spark": 6.233331999999999, "sharemind": 42.144219722,
                "obliv-c": 35.738319616,
            },
            {"records": 10000000, "spark": 19.433332, "sharemind": 4006.163619722, "obliv-c": None},
        ],
    ),
    "1b": (
        lambda: figures.series_fig1("project"),
        [
            {
                "records": 10, "spark": 6.100004499999999, "sharemind": 2.107784806,
                "obliv-c": 2.1025600000000004,
            },
            {
                "records": 1000, "spark": 6.1004995, "sharemind": 2.5241134660000006,
                "obliv-c": 2.3560000000000008,
            },
            {"records": 100000, "spark": 6.1499995, "sharemind": 44.156979466, "obliv-c": 27.7},
            {
                "records": 10000000, "spark": 11.099999500000003, "sharemind": 4207.4435794659985,
                "obliv-c": None,
            },
        ],
    ),
    "1c": (
        lambda: figures.series_fig1("join"),
        [
            {
                "records": 10, "spark": 6.10001525, "sharemind": 2.118994898,
                "obliv-c": 2.1199168000000004,
            },
            {
                "records": 1000, "spark": 6.101692750000003, "sharemind": 39.747404618000004,
                "obliv-c": 163.25199999999998,
            },
            {"records": 100000, "spark": 6.269442750000003, "sharemind": None, "obliv-c": None},
            {"records": 10000000, "spark": 23.04444275000001, "sharemind": None, "obliv-c": None},
        ],
    ),
    "4": (
        lambda: figures.series_fig4(),
        [
            {
                "records": 10, "conclave": 9.20568387866667, "sharemind": 2.164729572000001,
                "insecure-spark": 9.205681600888887,
            },
            {
                "records": 1000, "conclave": 9.206198378666667, "sharemind": 4.568304130000001,
                "insecure-spark": 9.20585310088889,
            },
            {
                "records": 100000, "conclave": 9.257568378666669, "sharemind": 651.779746618,
                "insecure-spark": 9.222976434222225,
            },
            {
                "records": 10000000, "conclave": 14.39456837866667, "sharemind": None,
                "insecure-spark": 10.935309767555557,
            },
            {
                "records": 1300000000, "conclave": 683.7612350453337, "sharemind": None,
                "insecure-spark": 234.0575319897779,
            },
        ],
    ),
    "5a": (
        lambda: figures.series_fig5_join(),
        [
            {
                "records": 10, "sharemind-join": 2.115076154, "hybrid-join": 15.089120993333331,
                "public-join": 15.058515103333331,
            },
            {
                "records": 1000, "sharemind-join": 30.277224, "hybrid-join": 16.851635333333334,
                "public-join": 15.505510333333334,
            },
            {
                "records": 10000, "sharemind-join": 2780.31024, "hybrid-join": 36.86459333333334,
                "public-join": 19.569103333333334,
            },
            {
                "records": 200000, "sharemind-join": None, "hybrid-join": 535.0706666666666,
                "public-join": 105.35606666666668,
            },
            {
                "records": 2000000, "sharemind-join": None, "hybrid-join": 5852.048666666666,
                "public-join": 918.0746666666666,
            },
        ],
    ),
    "5b": (
        lambda: figures.series_fig5_agg(),
        [
            {"records": 10, "sharemind-agg": 2.151718646, "hybrid-agg": 11.070787039333332},
            {
                "records": 1000, "sharemind-agg": 4.4442117859999986,
                "hybrid-agg": 11.769096019333332,
            },
            {
                "records": 10000, "sharemind-agg": 58.025190986000005,
                "hybrid-agg": 18.069339219333333,
            },
            {
                "records": 100000, "sharemind-agg": 642.1855375460002,
                "hybrid-agg": 81.05141121933333,
            },
        ],
    ),
    "6": (
        lambda: figures.series_fig6(),
        [
            {"records": 10, "conclave": 29.22764843266667, "sharemind": 2.15044323},
            {"records": 1000, "conclave": 30.827745174000007, "sharemind": 28.111284898000005},
            {"records": 3000, "conclave": 34.411942982, "sharemind": 228.2226574100001},
            {"records": 30000, "conclave": 89.773323022, "sharemind": None},
            {"records": 300000, "conclave": 729.7151858220003, "sharemind": None},
        ],
    ),
    "7a": (
        lambda: figures.series_fig7_aspirin(),
        [
            {"records": 10, "conclave": 15.06998394733333, "smcql": 10.00008},
            {"records": 1000, "conclave": 15.957691785333335, "smcql": 28.2191936},
            {"records": 40000, "conclave": 50.808886911333325, "smcql": 738.767744},
            {"records": 400000, "conclave": 373.21227910333323, "smcql": None},
            {"records": 4000000, "conclave": 3600.390815103334, "smcql": None},
        ],
    ),
    "7b": (
        lambda: figures.series_fig7_comorbidity(),
        [
            {"records": 10, "conclave": 7.063063819333333, "smcql": 10.906843456},
            {"records": 1000, "conclave": 7.736967799333334, "smcql": 21.569218048},
            {"records": 10000, "conclave": 14.073919079333335, "smcql": 167.925511936},
            {"records": 100000, "conclave": 183.89609619933333, "smcql": 4543.501443327999},
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
