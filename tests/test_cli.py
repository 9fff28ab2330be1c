import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolvekit.cli import _csv_rows, _parse_grid, _write_file, main
from evolvekit.density import ac_mass, boundary_probability, density_batch
from evolvekit.geometry import EvolutionParams, build_simplex, classify_batch
from evolvekit.simulator import BLOCK_SIZE, SimulationConfig, simulate_batch
from evolvekit.verification import telegraph_density
from test_geometry import _reference_support_margins


def run_cli(argv):
    return main(argv)


def _fmt(x):
    """The float format of the per-row writers the %-templates replaced."""
    return "{:.17g}".format(float(x))


def _hostile_floats() -> np.ndarray:
    """Powers of ten and their neighbours, raw bit patterns, exact rounding
    ties, and the points where %.17g switches notation; both signs."""
    powers = 10.0 ** np.arange(-5, 19)
    values = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    rng = np.random.default_rng(20)
    values.append(rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64))
    values.append((2 * rng.integers(0, 2**40, size=20_000) + 1) / 2**17)  # ties, e.g. 1 + 2**-17
    switches = np.array([1e-4, 1e16, 1e17])
    values += [switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf)]
    values.append(np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan]))
    x = np.concatenate(values)
    return np.concatenate([x, -x])


class TestRowFormatter:
    def test_special_floats_match_format(self):
        values = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, -1 / 3]
        got = _csv_rows([np.array([v]) for v in values] + [np.array([-3])])
        assert got == ",".join(_fmt(v) for v in values) + f",{np.int64(-3)}\n"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float_matches_format(self, values):
        got = _csv_rows([np.array(values, dtype=np.float64)]).split("\n")
        assert got == ["%.17g" % v for v in values] + [""]

    def test_hostile_floats_match_format(self):
        x = _hostile_floats()
        got = _csv_rows([x]).split("\n")
        want = ["%.17g" % v for v in x.tolist()] + [""]
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        assert not bad and len(got) == len(want)

    def test_ints_match_format(self):
        v = np.array([-3, 0, 9, 10, 10**6, 2**62, 10**17 - 1, 10**17, -(2**63), 2**63 - 1])
        assert _csv_rows([v]) == "".join("%d\n" % i for i in v.tolist())

    def test_mixed_columns_match_row_format(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50) * 10.0 ** rng.integers(-8, 20, 50)
        x[[3, 7, 11]] = [np.nan, -0.0, 150.0]
        labels = np.array(["inside", "boundary", "outside", "b"] * 12 + ["x", "y"], dtype=object)
        counts = rng.integers(-5, 10**9, 50)
        got = _csv_rows([x, labels, counts, x[::-1]])
        rows = zip(x.tolist(), labels.tolist(), counts.tolist(), x[::-1].tolist())
        assert got == "".join("%.17g,%s,%d,%.17g\n" % row for row in rows)

    def test_geometry_bytes_match_old_writer(self, capsys):
        assert run_cli(["geometry", "--n", "3"]) == 0
        n = 3
        constants = {
            "volume_coefficient": math.sqrt(n + 1) ** (n + 1)
            / (math.sqrt(n) ** n * math.factorial(n)),
            "prefactor_unit_speed": math.sqrt(n) ** n / math.sqrt(n + 1) ** (n + 1),
            "bessel_root_scale": math.exp(math.log(2 * n + 2) / (2 * n + 2)),
            "pairwise_dot": -1.0 / n,
        }
        lines = [",".join(f"x_{j + 1}" for j in range(n))]
        for row in build_simplex(n).vertices:
            lines.append(",".join(_fmt(c) for c in row))
        for key in sorted(constants):
            lines.append(f"# {key}={_fmt(constants[key])}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_density_bytes_match_old_writer(self, capsys):
        assert run_cli(["density", "--grid", "simplex:4", "--n", "2", "--t", "1"]) == 0
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        pts = _parse_grid("simplex:4", params, 1.0)
        values = density_batch(params, pts, 1.0)
        location = classify_batch(params, pts, 1.0)
        mass = ac_mass(params, 1.0)
        singular = boundary_probability(params, 1.0)
        lines = ["x_1,x_2,membership,density"]
        for pt, loc, val in zip(pts, location, values):
            lines.append(",".join(_fmt(c) for c in pt) + f",{loc},{_fmt(val)}")
        lines.append(f"# ac_mass={_fmt(mass)},boundary_probability={_fmt(singular)}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


class TestOutputFailures:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "2", "--t", "1", "--samples", "10", "--seed", "1"],
            ["geometry", "--n", "3"],
        ],
    )
    def test_directory_out_leaves_no_manifest(self, tmp_path, argv):
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", str(target)])
        assert exc.value.code == 2
        assert target.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_unwritable_manifest_removes_data(self, tmp_path):
        out = tmp_path / "paths.csv"
        (tmp_path / "paths.csv.manifest.json").mkdir()
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--n", "1", "--t", "1", "--samples", "10", "--seed", "1",
                     "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_failed_write_removes_file(self, tmp_path):
        out = tmp_path / "part.csv"

        def write(fh):
            fh.write("x_1\n")
            raise OSError("disk full")

        with pytest.raises(OSError):
            _write_file(str(out), write)
        assert not out.exists()


class TestGeometryCommand:
    def test_csv_vertices(self, capsys):
        assert run_cli(["geometry", "--n", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "x_1,x_2"
        rows = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
        expected = np.array([[1, 0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
        assert np.allclose(rows, expected, atol=1e-15)

    def test_constants_in_trailer(self, capsys):
        run_cli(["geometry", "--n", "1"])
        out = capsys.readouterr().out
        assert "# pairwise_dot=-1" in out
        assert "# volume_coefficient=2" in out

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "geom.json"
        assert run_cli(["geometry", "--n", "3", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 3
        V = np.array(payload["vertices"])
        assert V.shape == (4, 3)
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
        assert set(payload["constants"]) == {
            "volume_coefficient",
            "prefactor_unit_speed",
            "bessel_root_scale",
            "pairwise_dot",
        }

    def test_bad_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["geometry", "--n", "0"])
        assert exc.value.code == 2

    def test_volume_coefficient_past_factorial_overflow(self, capsys):
        # from n = 116 the product of the formula's denominator factors overflows
        assert run_cli(["geometry", "--n", "116", "--format", "json"]) == 0
        constants = json.loads(capsys.readouterr().out)["constants"]
        assert constants["volume_coefficient"] == pytest.approx(5.2446e-190, rel=1e-4, abs=0)

    def test_constant_beyond_float_range_is_usage_error(self, capsys):
        # the unit-speed prefactor (sqrt n)^n / (sqrt(n+1))^(n+1) overflows at n = 300
        with pytest.raises(SystemExit) as exc:
            run_cli(["geometry", "--n", "300"])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_constant_overflow_names_the_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["geometry", "--n", "300"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "n=300" in err and "v=1.0" in err
        assert "Numerical result out of range" not in err


class TestDensityCommand:
    def test_line_grid_matches_oracle(self, tmp_path):
        out = tmp_path / "density.csv"
        code = run_cli(
            ["density", "--n", "1", "--lambda", "1", "--v", "1", "--t", "1",
             "--grid=-1.2:1.2:101", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_1,membership,density"
        trailer = lines[-1]
        assert trailer.startswith("# ac_mass=")
        assert f"{1 - math.exp(-1):.17g}"[:16] in trailer
        for line in lines[1:-1]:
            x, membership, value = line.split(",")
            x, value = float(x), float(value)
            if membership == "inside":
                assert value == pytest.approx(
                    float(telegraph_density(x, 1.0, 1.0, 1.0)), abs=1e-10
                )
            else:
                assert value == 0.0

    def test_single_point(self, capsys):
        assert run_cli(
            ["density", "--n", "2", "--t", "1", "--point", "0,0"]
        ) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        assert float(rows[1].split(",")[-1]) > 0

    def test_json_format(self, capsys):
        run_cli(["density", "--n", "1", "--t", "1", "--point", "0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["membership"] == "inside"
        assert payload["ac_mass"] == pytest.approx(1 - math.exp(-1), rel=1e-12)
        assert payload["boundary_probability"] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_simplex_grid(self, capsys):
        assert run_cli(["density", "--n", "2", "--t", "1", "--grid", "simplex:4"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 16  # 4^2 barycentric cells
        assert all(r.split(",")[2] == "inside" for r in rows)

    def test_nonpositive_time_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["density", "--n", "1", "--t", "0", "--point", "0"])
        assert exc.value.code == 2

    def test_infinite_time_usage_error_names_t(self, capsys):
        # density_batch refuses t = inf itself; it once returned 0 everywhere
        with pytest.raises(SystemExit) as exc:
            run_cli(["density", "--n", "2", "--t", "inf", "--point", "0,0"])
        assert exc.value.code == 2
        assert "t must be finite" in capsys.readouterr().err

    def test_missing_grid_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["density", "--n", "1", "--t", "1"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--n", "2", "--t", "1", "--samples", "1000", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_contract_and_kinematics(self, tmp_path):
        out = tmp_path / "paths.csv"
        run_cli(
            ["simulate", "--n", "2", "--lambda", "1.5", "--t", "2", "--samples",
             "20000", "--seed", "3", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,switches,initial_direction,current_direction"
        data = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
        assert len(data) == 20000
        # switch-count mean near lam * t
        mean = data[:, 2].mean()
        assert abs(mean - 3.0) < 3 * math.sqrt(3.0 / len(data))
        # closure membership
        params = EvolutionParams(n=2, lam=1.5, v=1.0)
        margins = _reference_support_margins(params, data[:, :2], 2.0)
        assert margins.min() >= -1e-9 * 2.0
        # cyclic bookkeeping columns
        assert np.all((data[:, 3] + data[:, 2]) % 3 == data[:, 4])

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "paths.csv"
        run_cli(
            ["simulate", "--n", "1", "--t", "1", "--samples", "10", "--seed", "1",
             "--out", str(out)]
        )
        manifest = json.loads((tmp_path / "paths.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1
        assert manifest["parameters"]["samples"] == 10
        assert manifest["artifact_version"]
        assert manifest["timestamp"]

    def test_fixed_policy(self, tmp_path):
        out = tmp_path / "paths.csv"
        run_cli(
            ["simulate", "--n", "2", "--t", "0.5", "--samples", "50", "--seed", "1",
             "--policy", "fixed:1", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()[1:]
        assert all(l.split(",")[3] == "1" for l in lines)

    def test_out_required(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--n", "1", "--t", "1", "--samples", "10", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", [str(2**64 + 5), "-3"])
    def test_seed_outside_64_bits_usage_error(self, tmp_path, seed):
        out = tmp_path / "paths.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--n", "1", "--t", "1", "--samples", "10", "--seed", seed,
                     "--out", str(out)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_bad_threads_variable_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EVOLVEKIT_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--n", "2", "--t", "1", "--samples", "10", "--seed", "1",
                     "--out", str(tmp_path / "paths.csv")])
        assert exc.value.code == 2
        assert "EVOLVEKIT_THREADS" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_policy_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["simulate", "--n", "1", "--t", "1", "--samples", "10", "--seed", "1",
                 "--policy", "sideways", "--out", "/tmp/x.csv"]
            )
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "n, policy, samples, t, v",
        [
            pytest.param(1, "uniform", 500, 1.5, 1.0, id="1-uniform-500"),
            pytest.param(1, "fixed:1", 500, 1.5, 1.0, id="1-fixed:1-500"),
            pytest.param(2, "uniform", BLOCK_SIZE + 1, 1.5, 1.0, id="2-uniform-65537"),
            pytest.param(2, "fixed:1", 500, 1.5, 1.0, id="2-fixed:1-500"),
            pytest.param(3, "uniform", 500, 1.5, 1.0, id="3-uniform-500"),
            pytest.param(3, "fixed:1", 500, 1.5, 1.0, id="3-fixed:1-500"),
            # the dot falls inside the digits
            pytest.param(2, "uniform", 500, 150.0, 1.0, id="2-uniform-500-t=150"),
            # every position is printed in scientific notation
            pytest.param(2, "uniform", 500, 1.5, 1e-7, id="2-uniform-500-v=1e-07"),
        ],
    )
    def test_bytes_match_old_writer(self, tmp_path, n, policy, samples, t, v):
        out = tmp_path / "paths.csv"
        assert run_cli(
            ["simulate", "--n", str(n), "--lambda", "2", "--v", str(v), "--t", str(t),
             "--samples", str(samples), "--seed", "11", "--policy", policy, "--out", str(out)]
        ) == 0
        config = SimulationConfig(
            seed=11, samples=samples, horizon=t,
            initial_direction=None if policy == "uniform" else 1,
        )
        data = simulate_batch(EvolutionParams(n=n, lam=2.0, v=v), config, workers=1)
        header = ",".join(f"x_{j + 1}" for j in range(n))
        lines = [header + ",switches,initial_direction,current_direction"]
        for i in range(len(data)):
            lines.append(
                ",".join(_fmt(c) for c in data.positions[i])
                + f",{data.switches[i]},{data.initial_direction[i]},{data.current_direction[i]}"
            )
        assert out.read_text() == "\n".join(lines) + "\n"


class TestVerifyCommand:
    def test_coefficients_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            ["verify", "--suite", "coefficients", "--n", "3", "--budget", "1000",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        assert payload["status"] == "ok"
        assert payload["counts"]["fail"] == 0
        assert all(c["passed"] for c in payload["checks"])

    def test_beta_suite(self, capsys):
        assert run_cli(["verify", "--suite", "beta", "--budget", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["pass"] == 55

    def test_remark_suite_past_factorial_overflow(self, capsys):
        assert run_cli(["verify", "--suite", "remark", "--n", "171", "--budget", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"pass": 5, "fail": 0, "report_only": 0}

    def test_report_only_checks_counted_apart(self, capsys):
        assert run_cli(["verify", "--suite", "all", "--budget", "200000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"pass": 114, "fail": 0, "report_only": 2}
        assert len(payload["checks"]) == 116

    def test_zero_budget_distinct_status(self, capsys):
        assert run_cli(["verify", "--suite", "geometry", "--budget", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "empty"
        assert payload["checks"] == []

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "nosuch"])
        assert exc.value.code == 2
