"""Quick self-tests of the benchmark: python3 -m pytest bench -q

They check the closed forms on hand-checked values, the input generators,
that the output checks reject wrong output, and that the metric names and
units the harness prints are those in BENCHMARK.json.  They do not run torcap.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction as F

import closed_forms as cf
import run
import tracing
import workloads as wl
from calibrate import reference


def test_ball_and_polydisk_by_hand():
    assert cf.ellipsoid(1, 1, 6) == [0, 1, 1, 2, 2, 2, 3]
    assert [cf.ball_multiplier(k) for k in range(10)] == cf.ellipsoid(1, 1, 9)
    assert cf.polydisk(1, 1, 8) == [0, 1, 2, 2, 3, 3, 4, 4, 4]
    assert cf.ellipsoid(1, 2, 8) == [0, 1, 2, 2, 3, 3, 4, 4, 4]
    assert cf.ellipsoid(F(1, 2), 3, 3) == [0, F(1, 2), 1, F(3, 2)]
    # E(1, 2) fits in P(1, 2) and contains B(1)
    ball, e12, p12 = cf.ellipsoid(1, 1, 30), cf.ellipsoid(1, 2, 30), cf.polydisk(1, 2, 30)
    assert all(b <= e <= p for b, e, p in zip(ball, e12, p12))


def test_hull_drops_collinear_points():
    assert cf.strict_hull([(0, 0), (1, 1), (2, 2)]) == []
    assert cf.strict_hull([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1)]) == [(0, 0), (2, 0), (0, 2)]


def test_lattice_width_and_smoothness():
    assert cf.lattice_width([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1
    assert cf.lattice_width([(0, 0), (2, 0), (0, 2)]) == 2
    # a thin parallelogram whose width is along (1, -1), not the axes
    assert cf.lattice_width([(0, 0), (1, 0), (5, 4), (4, 4)]) == 1
    tri = [(0, 0), (1, 0), (0, 2)]
    assert [cf.is_smooth_vertex(tri, i) for i in range(3)] == [True, False, True]


def test_chain_geometry():
    chain = wl.pts((0, 2), (1, F(1, 2)), (F(3, 2), 0))
    assert cf.chain_area(chain) == F(11, 8)
    # the first edge's line 3x + 2y = 4 cuts off the larger triangle
    assert cf.chain_inscribed_ellipsoid(chain) == (F(4, 3), F(2))
    # B(3/2) below x + y = 3/2, then E(1, 1/2) = B(1/2) + B(1/2) above it
    assert wl.weights_problems([F(3, 2), F(1, 2), F(1, 2)], chain) == []
    assert wl.weights_problems([F(1)], chain) != []


def test_family_is_seeded_distinct_and_smooth():
    for seed in (wl.FAMILY_SEED, 7):
        fam = wl.family(seed)
        assert fam == wl.family(seed)
        counts = {n: sum(len(p) == n for p in fam) for n in wl.FAMILY_EDGES}
        assert counts == wl.FAMILY_EDGES
        keys = {tuple((x - p[0][0], y - p[0][1]) for x, y in p) for p in fam}
        assert len(keys) == len(fam)
        for p in fam:
            assert cf.strict_hull(p) == list(p)
            assert any(cf.is_smooth_vertex(p, i) for i in range(len(p)))
    assert wl.family(7) != wl.family()


def test_placed_family_keeps_shapes():
    base = wl.family()
    placed = wl.placed_family(3)
    assert placed == wl.placed_family(3) != wl.placed_family(4)
    assert sorted((len(p), cf.area(p), cf.lattice_width(p)) for p in placed) == \
        sorted((len(p), cf.area(p), cf.lattice_width(p)) for p in base)


def test_job_inputs_depend_only_on_the_seed():
    for make in (wl.alg_sweep, wl.ech_concave, wl.verify):
        same = [(j.name, j.args, j.files) for j in make(5)]
        assert same == [(j.name, j.args, j.files) for j in make(5)]
        assert same != [(j.name, j.args, j.files) for j in make(6)]


def test_checks_reject_wrong_output():
    good = "".join(f"{k}\t{v}\n" for k, v in enumerate(cf.polydisk(2, 3, 5)))
    check = wl.sequence_check(5, exact=cf.polydisk(2, 3, 5))
    assert check(good, 0) == []
    assert check(good.replace("\t2\n", "\t3\n", 1), 0) != []
    assert check(good, 2) != []
    assert check(good.rsplit("5\t", 1)[0], 0) != []
    sandwich = wl.sequence_check(5, lower=[cf.ellipsoid(1, 1, 5)], upper=[cf.polydisk(1, 1, 5)])
    assert sandwich("".join(f"{k}\t{v}\n" for k, v in enumerate(cf.ellipsoid(1, 1, 5))), 0) == []
    assert sandwich("0\t0\n1\t1\n2\t1\n3\t3\n4\t2\n5\t2\n", 0) != []
    verify = wl.verify_check(1, None)
    assert verify("k=0\t0\t0\tOK\nk=1\t1\t1\tOK\n", 0) == []
    assert verify("k=0\t0\t0\tOK\nk=1\tSKIP\tno feasible divisor inside the box\n", 0) != []
    assert verify("k=0\t0\t0\tOK\nk=1\t1\t2\tMISMATCH\n", 1) != []


def test_family_check_uses_the_closed_form():
    square = wl.pts((0, 0), (1, 0), (1, 1), (0, 1))
    row = {"gw": "1", "lw": "1", "holds": True, "at_compatible": True,
           "above_compatible": False, "above_k": 2, "above_domain": "65/64",
           "above_target": "1"}
    assert wl.family_problems(square, row) == []
    assert wl.family_problems(square, dict(row, above_domain="2")) != []
    assert wl.family_problems(square, dict(row, lw="2")) != []
    assert wl.family_problems(square, dict(row, above_compatible=True)) != []


def test_tracer_self_time_and_counts():
    tracer = tracing.Tracer()
    # calg [0, 10] with children build_surface [1, 3] and h0 [4, 5]
    tracer.spans = [["capacities.calg", 0.0, 10.0, -1], ["toric.build_surface", 1.0, 3.0, 0],
                    ["toric.h0", 4.0, 5.0, 0], ["capacities.calg", 11.0, 12.0, -1]]
    out = tracer.summary()
    assert out["capacities.calg.self_s"] == 8.0
    assert out["toric.build_surface.self_s"] == 2.0
    assert out["capacities.calg.calls"] == 2
    assert out["capacities.calg.table_builds"] == 1
    assert out["toric.h0.calls"] == 1
    assert out["oracle.scanned_vectors"] == 0


def test_reference_is_fixed():
    assert reference() == reference()


def test_tail_has_ten_values_beyond_it():
    assert run.tail(list(range(40))) == 29
    assert run.tail([3, 1, 2]) == 3


def test_metric_names_and_units_match_benchmark_json():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["bench"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
