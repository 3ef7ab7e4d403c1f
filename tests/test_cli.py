import json

import numpy as np
import pytest

from abeltrace import serialize as ser
from abeltrace.cli import main
from abeltrace.errors import DimensionMismatch
from abeltrace.geometry import DomainSpec, PlaneChart, ResidueData, VarietySpec
from abeltrace.multipoly import MultiPoly
from abeltrace.radon import radon_coefficients, verify_shock_relations
from abeltrace.residues import GridPlan, TorusPlan, TraceTable, trace_table

V2 = ("x", "y")
# the --map file of a = 2 a', b = b'
DIAG_MAP = '{"matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]], "offset": [[0, 0], [0, 0]]}'


def strict_loads(text):
    """json.loads that refuses NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture(autouse=True)
def artifacts_are_strict_json(tmp_path):
    """Every JSON file a test leaves in its tmp_path parses strictly."""
    yield
    for path in sorted(tmp_path.rglob("*.json")):
        strict_loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def parabola_files(tmp_path):
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    v = VarietySpec(("x",), ("y",), [f])
    paths = {}
    paths["variety"] = tmp_path / "parabola.json"
    paths["variety"].write_text(ser.dumps(ser.encode_variety(v)))
    paths["numerator"] = tmp_path / "one.json"
    paths["numerator"].write_text(
        ser.dumps(ser.encode_multipoly(MultiPoly.constant(1.0, V2)))
    )
    dom = DomainSpec(PlaneChart([[0.1]], [3.0]), {"a1.1": 0.4, "b1": 0.8})
    paths["domain"] = tmp_path / "dom.json"
    paths["domain"].write_text(ser.dumps(ser.encode_domain(dom)))
    vdom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 0.6})
    paths["vdomain"] = tmp_path / "vdom.json"
    paths["vdomain"].write_text(ser.dumps(ser.encode_domain(vdom)))
    return tmp_path, paths


class TestSerialization:
    def test_multipoly_round_trip(self):
        f = MultiPoly(V2, {(0, 2): 1.0 + 2.0j, (3, 1): -0.5})
        assert ser.decode_multipoly(ser.encode_multipoly(f)) == f

    def test_residue_data_round_trip(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        v = VarietySpec(("x",), ("y",), [f])
        w = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})
        d = ResidueData(v, MultiPoly.constant(2.0, V2), label="tag", weight=w)
        back = ser.decode_residue_data(ser.encode_residue_data(d))
        assert back.label == "tag"
        assert back.numerator == d.numerator
        assert back.weight == d.weight
        assert back.variety.defs == d.variety.defs
        assert (back.variety.x_vars, back.variety.y_vars) == (d.variety.x_vars, d.variety.y_vars)
        assert "degree" not in ser.encode_variety(d.variety)

    def test_domain_round_trip_preserves_frozen(self):
        dom = DomainSpec(PlaneChart([[0.5j, 1.0]], [2.0]), {"b1": 0.25})
        back = ser.decode_domain(ser.encode_domain(dom))
        assert back.radii == {"b1": 0.25}
        assert np.allclose(back.chart.to_params(), dom.chart.to_params())

    @pytest.mark.parametrize("radii", [[0.2], [0.2, 0.4, 0.1]])
    def test_domain_radii_of_wrong_length_rejected(self, radii):
        obj = {"n": 1, "p": 1, "center": [[0.1, 0.0], [3.0, 0.0]], "radii": radii}
        with pytest.raises(DimensionMismatch):
            ser.decode_domain(obj)

    @pytest.mark.parametrize("radii", [[0.2, -0.5], [float("nan"), 0.4], [0.2, float("inf")]])
    def test_domain_negative_or_non_finite_radius_rejected(self, radii):
        obj = {"n": 1, "p": 1, "center": [[0.1, 0.0], [3.0, 0.0]], "radii": radii}
        with pytest.raises(ValueError, match="must be positive and finite"):
            ser.decode_domain(obj)

    def test_trace_table_round_trip(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 0.5})
        t = trace_table(data, dom, 3, TorusPlan(5))
        back = ser.decode_trace_table(ser.encode_trace_table(t))
        assert back.max_order == t.max_order
        assert back.flags == t.flags
        for idx in t.entries:
            assert np.allclose(back.entries[idx], t.entries[idx])
        # the decoded table can still evaluate off-plan
        assert back.value(3, PlaneChart([[0.0]], [3.3])) == pytest.approx(-3.3)

    def test_radon_round_trip(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        dom = DomainSpec(PlaneChart([[0.1]], [2.0]), {"a1.1": 0.2, "b1": 0.3})
        # n = 2: labels (0, 1) and (1, 0) both have count vector (1,), so
        # the table holds one array for them; the file keeps every label
        v3 = ("x1", "x2", "y")
        f3 = MultiPoly(v3, {(0, 0, 2): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -0.5})
        data3 = ResidueData(
            VarietySpec(("x1", "x2"), ("y",), [f3]), MultiPoly.constant(1.0, v3)
        )
        dom3 = DomainSpec(
            PlaneChart([[0.1], [0.2]], [2.0, 1.0]), {"b1": 0.3, "b2": 0.2}
        )
        cases = (
            (data, dom, GridPlan({"a1.1": 3, "b1": 3}), [(0,), (1,)]),
            (data3, dom3, GridPlan({"b1": 2, "b2": 2}),
             [(0, 0), (0, 1), (1, 0), (1, 1)]),
        )
        for d, dm, plan, labels in cases:
            rt = radon_coefficients(d, dm, plan)
            text = ser.dumps(ser.encode_radon(rt))
            back = ser.decode_radon(json.loads(text))
            assert list(back.coeffs) == labels
            for lb in labels:
                assert np.allclose(back.coeffs[lb], rt.coeffs[lb])
            assert ser.dumps(ser.encode_radon(back)) == text

    def test_affine_map_from_json(self):
        # the --map file: a row-major matrix and an offset of [re, im] pairs
        back = ser.decode_affine_map(json.loads(
            '{"matrix": [[[2, 0], [0, 1]], [[0, 0], [1, 0]]], "offset": [[0.5, 0], [0, -0.25]]}'))
        assert np.array_equal(back.matrix, [[2.0, 1.0j], [0.0, 1.0]])
        assert np.array_equal(back.offset, [0.5, -0.25j])

    def test_trace_table_bitwise_round_trip(self):
        # every flag, NaN entries at the flagged samples, signed zeros,
        # subnormal, huge and infinite values
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 0.5})
        flags = ("clean", "cluster", "pole", "degree-drop", "unconverged", "clean")
        rng = np.random.default_rng(3)
        entries = {}
        for idx in [(0,), (1,), (2,)]:
            vals = (rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)
                    + 1j * rng.standard_normal(6))
            vals[2:5] = complex(np.nan, np.nan)
            entries[idx] = vals
        entries[(0,)][0] = complex(-0.0, 5e-324)
        entries[(1,)][5] = complex(np.inf, -np.inf)
        t = TraceTable(data, dom, [{"b1": 0.1 * s} for s in range(6)], entries,
                       np.array([1.0, 2.5, 0.0, 0.0, 0.0, np.inf]), flags, 2, 2)
        text = ser.dumps(ser.encode_trace_table(t))
        back = ser.decode_trace_table(strict_loads(text))
        assert back.flags == flags
        assert back.offsets == t.offsets
        assert back.term_scales.tobytes() == t.term_scales.tobytes()
        for idx, vals in entries.items():
            assert back.entries[idx].tobytes() == vals.tobytes()
        assert ser.dumps(ser.encode_trace_table(back)) == text

    @pytest.mark.parametrize("case", ["p1_weighted", "p2"])
    def test_decoded_table_samples_alike(self, case):
        # a table's artifact keeps every sampling setting: off-plan reads
        # and the shock check of the decoded table are bitwise the original's
        if case == "p1_weighted":
            f = MultiPoly(V2, {(0, 3): 1.0, (1, 1): 0.5 - 0.2j, (1, 0): -1.0, (0, 0): 0.3})
            data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                               MultiPoly(V2, {(0, 0): 1.0, (0, 1): 0.3, (1, 1): -0.7j}),
                               weight=MultiPoly(V2, {(1, 0): 1.0, (0, 0): -7.0}))
            dom = DomainSpec(PlaneChart([[0.15 + 0.05j]], [3.0 + 0.2j]), {"a1.1": 0.4, "b1": 0.8})
            t, offsets = trace_table(data, dom, 3, TorusPlan(6)), [[0.1 + 0.2j, -0.3j], [0.05, 0.7]]
        else:
            v3 = ("x", "y1", "y2")
            f1 = MultiPoly(v3, {(0, 2, 0): 1.0, (1, 0, 0): -1.0, (0, 0, 1): -0.3, (0, 1, 1): 0.2})
            f2 = MultiPoly(v3, {(0, 0, 2): 1.0, (0, 1, 0): 0.2, (0, 0, 0): -2.0, (1, 0, 0): 0.1j})
            data = ResidueData(VarietySpec(("x",), ("y1", "y2"), [f1, f2]),
                               MultiPoly(v3, {(0, 0, 0): 1.0, (0, 1, 0): 0.4}))
            dom = DomainSpec(PlaneChart([[0.1, 0.05j]], [1.5]),
                             {"a1.1": 0.2, "a1.2": 0.2, "b1": 0.3})
            t, offsets = trace_table(data, dom, 2, TorusPlan(3)), [[0.1j, -0.1j, 0.1], [0.05, 0.1, -0.2j]]
        back = ser.decode_trace_table(strict_loads(ser.dumps(ser.encode_trace_table(t))))
        charts = dom.charts_at(np.array(offsets))
        assert back.value(t.indices(), charts).tobytes() == t.value(t.indices(), charts).tobytes()
        assert back.value(1, charts[0]) == t.value(1, charts[0])
        assert verify_shock_relations(back, 1e-6) == verify_shock_relations(t, 1e-6)

    def test_dumps_deterministic(self):
        obj = {"b": [1.0, 2.0], "a": {"z": 0.1}}
        assert ser.dumps(obj) == ser.dumps(json.loads(ser.dumps(obj)))


class TestCli:
    def run_trace(self, paths, tmp_path, out="t.json", domain="domain",
                  grid="3x3", order=4):
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]),
            "--domain", str(paths[domain]),
            "--order", str(order), "--grid", grid,
            "-o", str(tmp_path / out),
        ])
        assert code == 0
        return tmp_path / out

    def test_trace_writes_table(self, parabola_files):
        tmp_path, paths = parabola_files
        out = self.run_trace(paths, tmp_path)
        obj = json.loads(out.read_text())
        assert obj["result"]["kind"] == "trace_table"
        assert "provenance" in obj
        col0 = obj["result"]["entries"]["0"]
        assert max(abs(complex(c[0], c[1])) for c in col0) < 1e-12

    def test_trace_rejects_short_radii(self, parabola_files, capsys):
        # one radius for the two parameters a1.1, b1: b1 is not frozen
        # silently, the job fails as bad input
        tmp_path, paths = parabola_files
        short = tmp_path / "short.json"
        short.write_text(ser.dumps({"n": 1, "p": 1, "center": [[0.1, 0.0], [3.0, 0.0]],
                                    "radii": [0.4]}))
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]), "--domain", str(short),
            "--order", "2", "--grid", "3x3", "-o", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert "1 radii for 2 parameters" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("grid", ["0x5", "3x-2", "torus:-3", "torus:0"])
    def test_trace_rejects_empty_grid(self, parabola_files, capsys, grid):
        # a count or node number below 1 used to sample the centre alone
        # (or fail inside numpy); it is bad input now
        tmp_path, paths = parabola_files
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]), "--domain", str(paths["domain"]),
            "--order", "2", "--grid", grid, "-o", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert "must be an integer of at least 1" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_trace_rejects_grid_of_wrong_rank(self, parabola_files, capsys):
        # one grid axis for a domain that varies a1.1 and b1
        tmp_path, paths = parabola_files
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]), "--domain", str(paths["domain"]),
            "--order", "2", "--grid", "5", "-o", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert "has 1 axes but domain varies ['a1.1', 'b1']" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_trace_with_weight(self, parabola_files):
        # the --weight file divides every residue: the table is the
        # library's for the weighted data, not the weightless one
        tmp_path, paths = parabola_files
        weight = MultiPoly(V2, {(0, 0): 2.0, (1, 0): 0.1, (0, 1): 0.3j})
        (tmp_path / "w.json").write_text(ser.dumps(ser.encode_multipoly(weight)))
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]), "--weight", str(tmp_path / "w.json"),
            "--domain", str(paths["domain"]), "--order", "3", "--grid", "3x3",
            "-o", str(tmp_path / "t.json"),
        ])
        assert code == 0
        got = ser.decode_trace_table(json.loads((tmp_path / "t.json").read_text())["result"])
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2),
                           weight=weight)
        dom = ser.decode_domain(json.loads(paths["domain"].read_text()))
        want = trace_table(data, dom, 3, GridPlan({"a1.1": 3, "b1": 3}))
        plain = trace_table(ResidueData(data.variety, data.numerator), dom, 3,
                            GridPlan({"a1.1": 3, "b1": 3}))
        for idx, vals in want.entries.items():
            assert got.entries[idx].tobytes() == vals.tobytes()
        assert not np.allclose(want.entries[(1,)], plain.entries[(1,)])

    def test_determinism(self, parabola_files):
        tmp_path, paths = parabola_files
        a = self.run_trace(paths, tmp_path, "t1.json").read_text()
        b = self.run_trace(paths, tmp_path, "t2.json").read_text()
        assert a == b

    def test_verify_shock_pass(self, parabola_files):
        tmp_path, paths = parabola_files
        out = self.run_trace(paths, tmp_path)
        code = main([
            "verify", "shock", "--traces", str(out), "--tol", "1e-6",
            "-o", str(tmp_path / "shock.json"),
        ])
        assert code == 0
        rep = json.loads((tmp_path / "shock.json").read_text())
        assert rep["report"]["passed"] is True

    def test_reconstruct_round_trip(self, parabola_files):
        tmp_path, paths = parabola_files
        out = self.run_trace(
            paths, tmp_path, "tv.json", domain="vdomain", grid="torus:9",
            order=5,
        )
        code = main([
            "reconstruct", "--traces", str(out), "--d-max", "2",
            "-o", str(tmp_path / "rec.json"),
        ])
        assert code == 0
        rec = json.loads((tmp_path / "rec.json").read_text())["result"]
        assert rec["degrees"] == [2]
        assert not rec["is_zero"]

    def test_reconstruct_zero_traces(self, parabola_files, tmp_path):
        _, paths = parabola_files
        zero = tmp_path / "zero.json"
        zero.write_text(ser.dumps(ser.encode_multipoly(MultiPoly.zero(V2))))
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(zero), "--domain", str(paths["vdomain"]),
            "--order", "3", "--grid", "torus:5",
            "-o", str(tmp_path / "tz.json"),
        ])
        assert code == 0
        code = main([
            "reconstruct", "--traces", str(tmp_path / "tz.json"),
            "-o", str(tmp_path / "recz.json"),
        ])
        assert code == 0
        rec = json.loads((tmp_path / "recz.json").read_text())["result"]
        assert rec["is_zero"] is True

    def test_radon_and_holomorphy(self, parabola_files):
        tmp_path, paths = parabola_files
        code = main([
            "radon", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]),
            "--domain", str(paths["domain"]), "--grid", "4x4",
            "-o", str(tmp_path / "rt.json"),
        ])
        assert code == 0
        code = main([
            "verify", "holomorphy", "--radon", str(tmp_path / "rt.json"),
            "--tol", "1e-6", "-o", str(tmp_path / "hol.json"),
        ])
        assert code == 0

    def test_verify_match_failure_exit_code(self, parabola_files, tmp_path):
        _, paths = parabola_files
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        v = VarietySpec(("x",), ("y",), [f])
        d1 = ResidueData(v, MultiPoly.constant(1.0, V2))
        d2 = ResidueData(v, MultiPoly.constant(2.0, V2))
        p1 = tmp_path / "d1.json"
        p2 = tmp_path / "d2.json"
        p1.write_text(ser.dumps(ser.encode_residue_data(d1)))
        p2.write_text(ser.dumps(ser.encode_residue_data(d2)))
        code = main([
            "verify", "match", "--data1", str(p1), "--data2", str(p2),
            "--domain", str(paths["vdomain"]), "--order", "3",
            "--tol", "1e-8",
        ])
        assert code == 2

    def test_equivariance_command(self, parabola_files, tmp_path):
        _, paths = parabola_files
        mpath = tmp_path / "mu.json"
        mpath.write_text(DIAG_MAP)
        code = main([
            "verify", "equivariance", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]),
            "--domain", str(paths["domain"]), "--map", str(mpath),
            "--tol", "1e-8",
        ])
        assert code == 0

    def test_extend_command(self, parabola_files, tmp_path):
        _, paths = parabola_files
        out = self.run_trace(paths, tmp_path, "tsmall.json", grid="torus:5")
        big = DomainSpec(
            PlaneChart([[0.1]], [3.0]), {"a1.1": 0.4, "b1": 1.6}
        )
        bpath = tmp_path / "big.json"
        bpath.write_text(ser.dumps(ser.encode_domain(big)))
        code = main([
            "extend", "--traces", str(out), "--domain", str(bpath),
            "--order", "2", "-o", str(tmp_path / "ext.json"),
        ])
        assert code == 0
        obj = json.loads((tmp_path / "ext.json").read_text())
        assert obj["result"]["kind"] == "trace_table"

    def test_repeated_calls_keep_defaults(self, parabola_files):
        # one parser serves every call; an option given in one call must
        # not leak into a later call that omits it
        tmp_path, paths = parabola_files
        data = ["--variety", str(paths["variety"]), "--numerator", str(paths["numerator"]),
                "--domain", str(paths["vdomain"])]
        first = tmp_path / "first.json"
        assert main(["trace", *data, "--order", "5", "--grid", "torus:9",
                     "--label", "tagged", "-o", str(first)]) == 0
        assert main(["reconstruct", "--traces", str(first), "--d-max", "2",
                     "--tol", "1e-7", "-o", str(tmp_path / "rec.json")]) == 0
        slanted = self.run_trace(paths, tmp_path, "slanted.json")
        assert main(["verify", "shock", "--traces", str(slanted),
                     "-o", str(tmp_path / "shock.json")]) == 0
        second = tmp_path / "second.json"
        assert main(["trace", *data, "--order", "3", "-o", str(second)]) == 0
        assert main(["reconstruct", "--traces", str(first), "--d-max", "2",
                     "-o", str(tmp_path / "rec2.json")]) == 0

        def params(name):
            return json.loads((tmp_path / name).read_text())["provenance"]["params"]

        assert params("first.json") == {"grid": "torus:9", "label": "tagged", "order": 5}
        assert params("rec.json") == {"d_max": 2, "deg_bound": None, "tol": 1e-7}
        assert params("shock.json") == {"tol": 1e-6}
        assert params("second.json") == {"grid": "torus:8", "label": "", "order": 3}
        assert params("rec2.json") == {"d_max": 2, "deg_bound": None, "tol": 1e-8}
        assert len(json.loads(second.read_text())["result"]["offsets"]) == 8

    def test_verify_report_keys(self, parabola_files):
        # each report is written as its dataclass fields, less the
        # in-memory shock details and holomorphy diagnostics
        tmp_path, paths = parabola_files
        data = ["--variety", str(paths["variety"]), "--numerator", str(paths["numerator"])]
        (tmp_path / "mu.json").write_text(DIAG_MAP)
        d1 = tmp_path / "d1.json"
        d1.write_text(ser.dumps(ser.encode_residue_data(ResidueData(
            VarietySpec(("x",), ("y",), [MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})]),
            MultiPoly.constant(1.0, V2)))))
        traces = self.run_trace(paths, tmp_path)
        assert main(["radon", *data, "--domain", str(paths["domain"]), "--grid", "4x4",
                     "-o", str(tmp_path / "rt.json")]) == 0
        verdict = {"passed", "max_residual", "max_relative", "tol"}
        cases = {
            "shock": (["--traces", str(traces)], verdict | {"checked"}),
            "equivariance": ([*data, "--domain", str(paths["domain"]),
                              "--map", str(tmp_path / "mu.json")], verdict | {"probes"}),
            "match": (["--data1", str(d1), "--data2", str(d1), "--domain",
                       str(paths["vdomain"]), "--order", "3"], verdict | {"samples", "indices"}),
            "holomorphy": (["--radon", str(tmp_path / "rt.json")],
                           {"status", "pole_samples", "tol"}),
        }
        for check, (args, keys) in cases.items():
            out = tmp_path / f"{check}.json"
            assert main(["verify", check, *args, "-o", str(out)]) == 0
            report = json.loads(out.read_text())["report"]
            assert set(report) == keys
            assert report.get("passed", True) is True

    @pytest.mark.parametrize("degree", [1, 2, 3, 2.5, True])
    def test_variety_degree_key_rejected(self, parabola_files, capsys, degree):
        # the fiber degree belongs to each domain; a variety that declares
        # one, right (2) or wrong, is bad input
        tmp_path, paths = parabola_files
        obj = json.loads(paths["variety"].read_text())
        obj["degree"] = degree
        paths["variety"].write_text(json.dumps(obj))
        code = main([
            "trace", "--variety", str(paths["variety"]),
            "--numerator", str(paths["numerator"]), "--domain", str(paths["domain"]),
            "--order", "2", "--grid", "3x3", "-o", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert '"degree" key' in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("d_max", ["0", "-1"])
    def test_reconstruct_rejects_d_max_below_one(self, parabola_files, capsys, d_max):
        tmp_path, paths = parabola_files
        out = self.run_trace(paths, tmp_path, "tv.json", domain="vdomain", grid="torus:9",
                             order=5)
        code = main([
            "reconstruct", "--traces", str(out), "--d-max", d_max,
            "-o", str(tmp_path / "rec.json"),
        ])
        assert code == 1
        assert "d_max must be an integer of at least 1" in capsys.readouterr().err
        assert not (tmp_path / "rec.json").exists()

    @pytest.mark.parametrize("argv", [["trace"], ["verify", "shock"], ["frobnicate"],
                                      ["reconstruct", "--traces", "t.json", "--bogus"]])
    def test_usage_error_exit_code(self, argv, capsys):
        # a missing argument, an unknown command or flag is a usage error
        # (1), not argparse's 2, which here means a failed verification
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "radon", "extend"])
    def test_arithmetic_tol_flag_rejected(self, parabola_files, capsys, command):
        # the root-finding tolerance is fixed; a stale --tol is a usage error
        tmp_path, paths = parabola_files
        data = ["--variety", str(paths["variety"]), "--numerator", str(paths["numerator"])]
        args = {"trace": [*data, "--order", "2"], "radon": data,
                "extend": ["--traces", str(tmp_path / "t.json"), "--order", "2"]}[command]
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as info:
            main([command, *args, "--domain", str(paths["domain"]), "--tol", "1e-9",
                  "-o", str(out)])
        assert info.value.code == 1
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["trace", "--help"], ["verify", "shock", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["trace", "extend"])
    def test_negative_order_rejected(self, parabola_files, capsys, command):
        # an order below 0 is bad input, for trace before any solve and
        # for extend before an order-0 extension is written
        tmp_path, paths = parabola_files
        if command == "trace":
            args = ["--variety", str(paths["variety"]), "--numerator", str(paths["numerator"]),
                    "--domain", str(paths["domain"])]
        else:
            big = tmp_path / "big.json"
            big.write_text(ser.dumps(ser.encode_domain(
                DomainSpec(PlaneChart([[0.1]], [3.0]), {"a1.1": 0.4, "b1": 1.6}))))
            args = ["--traces", str(self.run_trace(paths, tmp_path, "tsmall.json", grid="torus:5")),
                    "--domain", str(big)]
        out = tmp_path / "out.json"
        assert main([command, *args, "--order", "-1", "-o", str(out)]) == 1
        assert "order count must be an integer of at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_input_error_exit_code(self, tmp_path):
        code = main([
            "reconstruct", "--traces", str(tmp_path / "missing.json"),
        ])
        assert code == 1
