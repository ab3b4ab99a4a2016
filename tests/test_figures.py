"""Every point of the paper's figures and of the ablations, pinned, and the
paper's claim about each asserted over the pinned series.

``benchmarks/figures.py`` prices the compiled paper queries with
:class:`~repro.model.estimator.PlanEstimator`: one run of the executor on
row counts, the same code and charges as an execution.  These are the
series it produces; a change to a protocol's steps, an engine's charges, a
price or a row estimate moves a point here, and a re-pinned point must
still keep its figure's claim.  ``None`` is a point the system does not
finish (out of memory, or past the two-hour budget).

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

When the hybrid operators began revealing the keys to the STP only, their
points moved by the STP's hand-back round: +1 ms at small sizes (Figs. 5a,
5b, 6), more where the hand-back grows with the rows (Figs. 5a, 5b), and
down at Fig. 6's large sizes and in the hybrid-operator ablation, where the
banks no longer receive the keys.

When the operands of comparisons, truncations, divisions and min/max scans
began to go to the last compute party only (one ``env-apply`` round of
``n - 1`` messages instead of an ``n (n - 1)`` broadcast), 37 points moved
down, none by more than 0.23 % (Figs. 1b, 4, 5a, 6, 7a and the ablations).

When a sort key began to go to the last compute party only, which hands
back the order and the group flags (an ``env-apply`` round of ``n - 1``
messages and a ``hand-back`` round, instead of one ``n (n - 1)``
broadcast), 35 points moved by about one round each, none by more than
0.05 % (Figs. 4, 5b, 6, 7a, 7b and the ablations): up by ~1 ms where the
extra round outweighs the bytes, down at large sizes where the bytes
dominate (Fig. 4 ``sharemind`` at 100 000 rows, the disabled ablations).

When a group-by with several aggregates became one aggregation operator
(one sort or STP sort, one scan round set, one compaction, and no join
re-aligning per-aggregate results), 10 points moved down: every Fig. 6
point (``conclave`` by 9-11 s: one hybrid aggregation and no hybrid join
instead of two and one; ``sharemind`` by 3-6 ms) and both columns of the
hybrid-operator ablation, whose speed-up rises from 249x to 277x. A
count's column of public ones stopped riding the sort, so Fig. 7a's MPC
``distinct`` (a grouped count) moved down at its three largest sizes, by
up to 1.6 s.

When the completion time began to run MPC nodes one after another (the MPC
is one computation, so an MPC node starts no earlier than the previous one
finished), Fig. 7a's ``conclave`` moved up at every size, from +0.01 s at
10 records to +3 202 s at 4 M: the aspirin plan's two input branches no
longer overlap.  Fig. 4 and the push-down ablation moved by at most 1e-6 s.
"""

import functools
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "figures.py"
_SPEC = importlib.util.spec_from_file_location("figures", _PATH)
figures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(figures)

#: Figure panel (a key of ``figures.FIGURES``) -> its series.
PINS = {
    "1a": [
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
    "1b": [
        {
            "records": 10, "spark": 6.10001525, "sharemind": 2.118987986,
            "obliv-c": 2.1199168000000004,
        },
        {
            "records": 1000, "spark": 6.101692750000003, "sharemind": 39.662241866,
            "obliv-c": 163.25199999999998,
        },
        {"records": 30000, "spark": 6.150833333333335, "sharemind": None, "obliv-c": None},
        {"records": 100000, "spark": 6.269442750000003, "sharemind": None, "obliv-c": None},
        {"records": 10000000, "spark": 23.04444275000001, "sharemind": None, "obliv-c": None},
    ],
    "1c": [
        {
            "records": 10, "spark": 6.100004499999999, "sharemind": 2.107784806,
            "obliv-c": 2.1025600000000004,
        },
        {
            "records": 1000, "spark": 6.1004995, "sharemind": 2.5241134660000006,
            "obliv-c": 2.3560000000000008,
        },
        {"records": 100000, "spark": 6.1499995, "sharemind": 44.156979466, "obliv-c": 27.7},
        {"records": 300000, "spark": 6.25, "sharemind": 128.26420000000002, "obliv-c": None},
        {
            "records": 10000000, "spark": 11.099999500000003, "sharemind": 4207.4435794659985,
            "obliv-c": None,
        },
    ],
    "4": [
        {
            "records": 10, "conclave": 9.206681946666672, "sharemind": 2.165723844,
            "insecure-spark": 9.206679668888889,
        },
        {
            "records": 1000, "conclave": 9.207196446666668, "sharemind": 4.568922626,
            "insecure-spark": 9.20685116888889,
        },
        {
            "records": 100000, "conclave": 9.25856644666667, "sharemind": 651.7427965859999,
            "insecure-spark": 9.223974502222227,
        },
        {
            "records": 10000000, "conclave": 14.39556644666667, "sharemind": None,
            "insecure-spark": 10.936307835555558,
        },
        {
            "records": 1300000000, "conclave": 683.7622331133337, "sharemind": None,
            "insecure-spark": 234.05853005777786,
        },
    ],
    "5a": [
        {
            "records": 10, "sharemind-join": 2.115074554, "hybrid-join": 15.090121633333332,
            "public-join": 15.058515103333331,
        },
        {
            "records": 1000, "sharemind-join": 30.261224, "hybrid-join": 16.852699333333334,
            "public-join": 15.505510333333334,
        },
        {
            "records": 10000, "sharemind-join": 2778.71024, "hybrid-join": 36.866233333333334,
            "public-join": 19.569103333333334,
        },
        {
            "records": 200000, "sharemind-join": None, "hybrid-join": 535.0844666666667,
            "public-join": 105.35606666666668,
        },
        {
            "records": 2000000, "sharemind-join": None, "hybrid-join": 5852.177666666666,
            "public-join": 918.0746666666666,
        },
    ],
    "5b": [
        {"records": 10, "sharemind-agg": 2.1527186620000003, "hybrid-agg": 11.071787679333333},
        {
            "records": 1000, "sharemind-agg": 4.445212785999999,
            "hybrid-agg": 11.770160019333332,
        },
        {
            "records": 10000, "sharemind-agg": 58.026200986,
            "hybrid-agg": 18.070979219333335,
        },
        {
            "records": 100000, "sharemind-agg": 642.1866375460002,
            "hybrid-agg": 81.05881121933334,
        },
    ],
    "6": [
        {"records": 10, "conclave": 20.162952822, "sharemind": 2.1453614880000003},
        {"records": 1000, "conclave": 21.756270598000004, "sharemind": 28.052745996000006},
        {"records": 3000, "conclave": 25.328195363333336, "sharemind": 227.70730906600005},
        {"records": 30000, "conclave": 80.58267008333334, "sharemind": None},
        {"records": 300000, "conclave": 719.0063372833334, "sharemind": None},
    ],
    "7a": [
        {"records": 10, "conclave": 15.079988443333335, "smcql": 10.00008},
        {"records": 1000, "conclave": 16.760144713333336, "smcql": 28.2191936},
        {"records": 40000, "conclave": 82.82709567933333, "smcql": 738.767744},
        {"records": 400000, "conclave": 693.2745744633334, "smcql": None},
        {"records": 4000000, "conclave": 6800.592332095333, "smcql": None},
    ],
    "7b": [
        {"records": 10, "conclave": 7.064063827333333, "smcql": 10.906843456},
        {"records": 1000, "conclave": 7.738967999333335, "smcql": 21.569218048},
        {"records": 10000, "conclave": 14.075921079333332, "smcql": 167.925511936},
        {"records": 100000, "conclave": 183.89811619933332, "smcql": 4543.501443327999},
    ],
    "ablations": [
        {
            "optimization": "mpc-frontier-push-down", "records": 3000000,
            "disabled": 32973.690912654, "enabled": 10.763345196666668,
            "speedup": 3063.516993105983,
        },
        {
            "optimization": "hybrid-operators", "records": 30000,
            "disabled": 22313.258741786, "enabled": 80.58267008333334,
            "speedup": 276.89897491248536,
        },
        {
            "optimization": "sort-push-up", "records": 200000, "disabled": 1406.72448064,
            "enabled": 228.67366112000002, "speedup": 6.15166816217544,
        },
    ],
}


@functools.cache
def series(figure: str) -> list[dict]:
    return figures.FIGURES[figure].series()


def by_records(figure: str) -> dict[int, dict]:
    return {row["records"]: row for row in series(figure)}


@pytest.mark.parametrize("figure", figures.FIGURES)
def test_every_point_of_the_figure(figure):
    got, expected = series(figure), PINS[figure]
    assert [row.keys() for row in got] == [row.keys() for row in expected]
    for got_row, row in zip(got, expected):
        for system, seconds in row.items():
            point = (row["records"], system)
            if seconds is None:
                assert got_row[system] is None, point
            else:
                assert got_row[system] == pytest.approx(seconds, rel=1e-12), point


# -- the paper's claims (§7), over the pinned series ---------------------------------------


def assert_fig1_shape(figure: str, mpc_dies_by: int) -> None:
    """Figure 1: the cleartext engine stays interactive at the largest size,
    while both MPC frameworks are dead (``None``) or over 5x slower than it
    from ``mpc_dies_by`` records on."""
    rows = by_records(figure)
    largest = rows[max(rows)]
    assert largest["spark"] is not None and largest["spark"] < 60
    for records, row in rows.items():
        if records >= mpc_dies_by:
            for system in ("sharemind", "obliv-c"):
                assert row[system] is None or row[system] > 5 * row["spark"], (records, system)


def test_fig1a_aggregation_series():
    assert_fig1_shape("1a", mpc_dies_by=100_000)


def test_fig1b_join_series():
    assert_fig1_shape("1b", mpc_dies_by=1_000)
    # Obliv-C runs out of memory on the join around 30k records.
    assert all(row["obliv-c"] is None for row in series("1b") if row["records"] >= 30_000)


def test_fig1c_project_series():
    assert_fig1_shape("1c", mpc_dies_by=10_000_000)
    rows = by_records("1c")
    # Obliv-C's circuit state exhausts memory at a few hundred thousand records.
    assert any(row["obliv-c"] is None for records, row in rows.items() if records >= 300_000)
    # Sharemind finishes but needs more than ten minutes well before 10M.
    assert rows[10_000_000]["sharemind"] is None or rows[10_000_000]["sharemind"] > 600


def test_fig4_series():
    rows = by_records("4")
    # Sharemind alone does not finish 10M records or more.
    assert all(row["sharemind"] is None for records, row in rows.items() if records >= 10_000_000)
    # Conclave completes 1.3B records in under 20 minutes, within 5x of the
    # insecure joint cluster, which is faster there.
    full_scale = rows[1_300_000_000]
    assert full_scale["conclave"] is not None and full_scale["conclave"] < 20 * 60
    assert full_scale["insecure-spark"] is not None
    assert full_scale["insecure-spark"] < full_scale["conclave"] <= 5 * full_scale["insecure-spark"]
    # Same order of magnitude as the insecure baseline at every size.
    for row in rows.values():
        if row["conclave"] is not None and row["insecure-spark"] is not None:
            assert row["conclave"] <= 10 * row["insecure-spark"] + 60


def test_fig5a_join_series():
    rows = by_records("5a")
    # The MPC join does not finish 200k records within the experiment budget;
    # the hybrid join does, in roughly ten minutes.
    assert rows[200_000]["sharemind-join"] is None
    assert rows[200_000]["hybrid-join"] is not None and rows[200_000]["hybrid-join"] < 15 * 60
    # The public join is cheaper than the hybrid join at every completed size.
    for row in rows.values():
        if row["hybrid-join"] is not None and row["public-join"] is not None:
            assert row["public-join"] <= row["hybrid-join"]
    # Where all three complete (10k records), the hybrid join beats the MPC join 7x.
    assert rows[10_000]["hybrid-join"] < rows[10_000]["sharemind-join"] / 7


def test_fig5b_aggregation_series():
    rows = by_records("5b")
    # At 100k records the hybrid aggregation is at least 7x faster (§1, §7.2).
    top = rows[100_000]
    assert top["hybrid-agg"] is not None and top["sharemind-agg"] is not None
    assert top["sharemind-agg"] / top["hybrid-agg"] >= 7
    # The MPC aggregation grows super-linearly over the last decade, the
    # hybrid one near-linearly.
    growth_mpc = top["sharemind-agg"] / rows[10_000]["sharemind-agg"]
    assert top["hybrid-agg"] / rows[10_000]["hybrid-agg"] < growth_mpc


def test_fig6_series():
    rows = by_records("6")
    # Pure MPC does not finish 30k records; Conclave finishes 300k in under
    # 25 minutes, and wins where both complete beyond trivial sizes.
    assert rows[30_000]["sharemind"] is None
    assert rows[300_000]["conclave"] is not None and rows[300_000]["conclave"] < 25 * 60
    assert rows[3_000]["conclave"] < rows[3_000]["sharemind"]


def test_fig7a_aspirin_series():
    rows = by_records("7a")
    # Conclave beats SMCQL 5x at 40k rows per party; SMCQL does not finish
    # 400k, Conclave still completes 4M.
    assert rows[40_000]["conclave"] < rows[40_000]["smcql"] / 5
    assert rows[400_000]["smcql"] is None
    assert rows[4_000_000]["conclave"] is not None
    # The gap grows with data size while both systems complete.
    ratios = [
        row["smcql"] / row["conclave"]
        for records, row in rows.items()
        if records >= 1_000 and row["smcql"] is not None and row["conclave"] is not None
    ]
    assert ratios == sorted(ratios)


def test_fig7b_comorbidity_series():
    rows = by_records("7b")
    # At 100k rows per party SMCQL takes over an hour, Conclave minutes.
    assert rows[100_000]["smcql"] is None or rows[100_000]["smcql"] > 3600
    assert rows[100_000]["conclave"] < 600
    # Conclave wins at every non-trivial size.
    for records, row in rows.items():
        if records >= 1_000 and row["smcql"] is not None:
            assert row["conclave"] < row["smcql"]


#: Optimization -> the speed-up it must at least bring (``enabled`` is
#: faster than ``disabled`` by more than this factor).
ABLATION_SPEEDUPS = {"mpc-frontier-push-down": 50, "hybrid-operators": 10, "sort-push-up": 1}


@pytest.mark.parametrize("optimization", ABLATION_SPEEDUPS)
def test_ablation_speedup(optimization):
    (row,) = [row for row in series("ablations") if row["optimization"] == optimization]
    assert row["enabled"] < row["disabled"] / ABLATION_SPEEDUPS[optimization]
