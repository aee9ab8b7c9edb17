import math

import numpy as np
import pytest

from fisherdyn.datagen import (ManeuverController, PurePursuitController,
                               ReferencePath, SimulationConfig, Trajectory,
                               circular_path, derivative_samples,
                               generate_dynamic_dataset,
                               generate_kinematic_dataset, lookahead_steer,
                               read_dataset, read_points, simulate,
                               write_dataset, write_points)
from fisherdyn.dynamics import (ConfigError, DisturbanceConfig, DynamicModel,
                                KinematicModel)


class TestCircularPath:
    def test_quarter_symmetry(self):
        path = circular_path(20.0, 4)
        assert np.allclose(path.waypoints,
                           [[20, 0], [0, 20], [-20, 0], [0, -20]], atol=1e-12)
        assert path.closed

    def test_radius_invariant(self):
        path = circular_path(20.0, 257)
        radii = np.linalg.norm(path.waypoints, axis=1)
        assert np.max(np.abs(radii - 20.0)) < 1e-12

    def test_arc_spacing(self):
        path = circular_path(20.0, 1000)
        seg = np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1)
        assert np.allclose(seg, 2 * math.pi * 20.0 / 1000, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            circular_path(-1.0, 100)
        with pytest.raises(ConfigError):
            circular_path(5.0, 2)


class TestLookaheadSteer:
    def test_aligned_on_straight_segment(self):
        pts = np.column_stack([np.linspace(0, 100, 200), np.zeros(200)])
        path = ReferencePath(pts)
        delta = lookahead_steer(np.array([10.0, 0.0, 0.0]), path, 3.0, 2.5)
        assert abs(delta) < 1e-9

    def test_hard_left_clamps(self):
        # target directly to the left: alpha = pi/2, arctan(2L/d) > 30 deg
        pts = np.array([[0.0, 3.0], [0.0, 6.0], [0.0, 9.0]])
        path = ReferencePath(pts)
        delta = lookahead_steer(np.array([0.0, 0.0, 0.0]), path, 3.0, 2.5)
        assert delta == pytest.approx(0.5236)
        assert math.atan(2 * 2.5 / 3.0) == pytest.approx(1.0304, abs=2e-4)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([np.linspace(0, 50, 120),
                               3.0 * np.sin(np.linspace(0, 4, 120))])
        path = ReferencePath(pts)
        mirrored = ReferencePath(pts * np.array([1.0, -1.0]))
        for _ in range(20):
            s = np.array([rng.uniform(0, 40), rng.uniform(-3, 3),
                          rng.uniform(-0.8, 0.8)])
            d1 = lookahead_steer(s, path, 3.0, 2.5)
            d2 = lookahead_steer(s * np.array([1.0, -1.0, -1.0]), mirrored, 3.0, 2.5)
            assert d2 == pytest.approx(-d1, abs=1e-12)


class TestSimulate:
    def test_circular_tracking(self):
        cfg = SimulationConfig()
        model = KinematicModel()
        path = circular_path(20.0, 1000)
        (traj,) = simulate(model, PurePursuitController(path, cfg), cfg,
                           np.array([[20.0, 0.0, math.pi / 2]]))
        assert len(traj) == 311
        final_radius = np.hypot(traj.states[-1, 0], traj.states[-1, 1])
        assert abs(final_radius - 20.0) < 0.5
        # RMS cross-track error after the transient
        late = traj.times > 5.0
        radii = np.hypot(traj.states[late, 0], traj.states[late, 1])
        rms = float(np.sqrt(np.mean((radii - 20.0) ** 2)))
        assert rms < 0.5

    def test_timestamps_exact(self):
        cfg = SimulationConfig(total_time=2.0)
        model = KinematicModel()
        (traj,) = simulate(model, lambda s, t: np.array([[1.0, 0.0]]), cfg, np.zeros((1, 3)))
        assert np.array_equal(traj.times, np.arange(21) * 0.1)

    def test_zero_speed_is_stationary(self):
        cfg = SimulationConfig(total_time=1.0, speed=0.0)
        model = KinematicModel()
        path = circular_path(20.0, 100)
        (traj,) = simulate(model, PurePursuitController(path, cfg), cfg,
                           np.array([[20.0, 0.0, 0.0]]))
        assert np.allclose(traj.states, traj.states[0])
        assert np.allclose(traj.derivs, 0.0, atol=1e-15)

    def test_determinism(self):
        model = DynamicModel()
        trajs = generate_dynamic_dataset(model, n_runs=2, duration=3.0, seed=5)
        again = generate_dynamic_dataset(model, n_runs=2, duration=3.0, seed=5)
        for a, b in zip(trajs, again):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.inputs, b.inputs)

    def test_recorded_derivative_is_rhs(self):
        cfg = SimulationConfig(total_time=2.0)
        model = KinematicModel()
        path = circular_path(20.0, 500)
        (traj,) = simulate(model, PurePursuitController(path, cfg), cfg,
                           np.array([[20.0, 0.0, math.pi / 2]]))
        for k in range(len(traj)):
            rhs = model.rhs(traj.states[k], traj.inputs[k])
            assert np.max(np.abs(rhs - traj.derivs[k])) < 1e-12

    def test_envelope_exit_truncates(self):
        model = DynamicModel()
        controller = ManeuverController(lambda t: 0.0, v_set=0.0, k_speed=0.0,
                                        throttle_ff=0.0)  # car coasts to a stop
        cfg = SimulationConfig(dt=0.02, total_time=10.0)
        (traj,) = simulate(model, controller, cfg, np.array([[0, 0, 0, 0.7, 0.0, 0.0]]))
        assert traj.exit_reason != ""
        assert len(traj) < cfg.n_samples

    def test_stacked_rows_match_solo_runs(self):
        # rows 0 and 2 coast out of the envelope as in test_envelope_exit_truncates,
        # row 0 first; row 1 is driven and runs to the end
        model = DynamicModel()
        cfg = SimulationConfig(dt=0.02, total_time=10.0)
        s0 = np.array([[0, 0, 0, 0.7, 0.0, 0.0], [0, 0, 0, 2.0, 0.0, 0.0],
                       [0, 0, 0, 1.2, 0.0, 0.0]])
        coast = ManeuverController(lambda t: 0.0, v_set=0.0, k_speed=0.0, throttle_ff=0.0)
        drive = ManeuverController(lambda t: 0.1, v_set=2.0, k_speed=1.0, throttle_ff=0.0)
        stack = ManeuverController(lambda t: np.array([0.0, 0.1, 0.0]),
                                   v_set=np.array([0.0, 2.0, 0.0]), k_speed=1.0,
                                   throttle_ff=0.0)
        stacked = simulate(model, stack, cfg, s0)
        solo = (simulate(model, coast, cfg, s0[:1]) + simulate(model, drive, cfg, s0[1:2])
                + simulate(model, coast, cfg, s0[2:]))
        assert [len(t) for t in stacked] == [5, cfg.n_samples, 15]
        assert stacked[0].exit_reason == ("envelope exit at t=0.1: "
                                          "vx=0.494 <= vx_min=0.5; slip angles undefined")
        assert stacked[1].exit_reason == ""
        for a, b in zip(stacked, solo):
            assert a.exit_reason == b.exit_reason
            for key in ("times", "states", "inputs", "derivs"):
                assert np.array_equal(getattr(a, key), getattr(b, key))

    def test_one_rhs_call_per_stage_for_the_whole_stack(self):
        class CountingModel:
            def __init__(self, model):
                self.model, self.calls = model, 0

            def __getattr__(self, name):
                return getattr(self.model, name)

            def rhs(self, s, u, t=0.0):
                self.calls += 1
                return self.model.rhs(s, u, t)

        model = CountingModel(DynamicModel())
        trajs = generate_dynamic_dataset(model, n_runs=8, duration=4.0, dt=0.02, seed=1)
        assert [len(t) for t in trajs] == [201] * 8
        assert model.calls == 201 + 4 * 200

    def test_disturbance_divergence_timing(self):
        # bump force is zero at t=0, so the first integration step matches
        base = DynamicModel()
        bumped = DynamicModel(disturbances=[DisturbanceConfig.bump(
            ks=20.0, cs=0.0, z_amplitude=0.01, z_frequency=1.0)])
        cfg = SimulationConfig(dt=0.02, total_time=0.5)
        controller = ManeuverController(lambda t: 0.1, v_set=2.0)
        s0 = np.array([[0, 0, 0, 2.0, 0.0, 0.0]])
        (t_base,) = simulate(base, controller, cfg, s0)
        (t_bump,) = simulate(bumped, controller, cfg, s0)
        assert np.array_equal(t_base.states[:2], t_bump.states[:2])
        assert np.array_equal(t_base.derivs[0], t_bump.derivs[0])
        assert not np.allclose(t_base.derivs[1], t_bump.derivs[1])
        assert t_bump.disturbance_kind == "bump"


class TestDatasetIO:
    def make_traj(self):
        cfg = SimulationConfig(total_time=31.0)
        model = KinematicModel()
        path = circular_path(20.0, 1000)
        (traj,) = simulate(model, PurePursuitController(path, cfg), cfg,
                           np.array([[20.0, 0.0, math.pi / 2]]))
        return traj

    def test_full_round_trip_bit_exact(self, tmp_path):
        traj = self.make_traj()
        write_dataset([traj], tmp_path / "ds", {"seed": 0})
        back = read_dataset(tmp_path / "ds")[0]
        assert len(back) == 311
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert np.array_equal(back.inputs, traj.inputs)
        assert np.array_equal(back.derivs, traj.derivs)
        assert back.state_names == traj.state_names

    def test_empty_dataset(self, tmp_path):
        write_dataset([], tmp_path / "empty")
        assert read_dataset(tmp_path / "empty") == []

    def test_parse_error_has_line_number(self, tmp_path):
        traj = self.make_traj()
        (paths,) = write_dataset([traj], tmp_path / "ds")
        lines = open(paths).read().split("\n")
        lines[3] = lines[3].replace(",", ",junk", 1)
        with open(paths, "w") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(ConfigError, match=":4:"):
            read_dataset(tmp_path / "ds")

    def test_empty_trajectory_file_names_the_path(self, tmp_path):
        write_dataset([self.make_traj()], tmp_path / "ds")
        (tmp_path / "ds" / "traj_000.csv").write_text("\n \n")
        with pytest.raises(ConfigError, match="traj_000.csv: empty file"):
            read_dataset(tmp_path / "ds")

    def test_empty_points_file_names_the_path(self, tmp_path):
        (tmp_path / "pts.csv").write_text("")
        with pytest.raises(ConfigError, match="pts.csv: empty file"):
            read_points(tmp_path / "pts.csv")

    def test_ragged_points_row_names_its_line(self, tmp_path):
        (tmp_path / "pts.csv").write_text(
            "state_0,state_1,state_2,input_0,input_1\n1,2,3,4,5\n1,2,3,4\n")
        with pytest.raises(ConfigError, match=r"pts.csv:3: expected 5 fields, got 4"):
            read_points(tmp_path / "pts.csv")

    def test_truncated_trajectory_file_names_the_path(self, tmp_path):
        (path,) = write_dataset([self.make_traj()], tmp_path / "ds")
        with open(path) as fh:
            head = fh.readlines()[:5]
        with open(path, "w") as fh:
            fh.writelines(head)
        with pytest.raises(ConfigError, match="traj_000.csv: 4 rows, the manifest "
                                              "says 311 samples"):
            read_dataset(tmp_path / "ds")

    def test_corrupt_manifest_names_the_path(self, tmp_path):
        write_dataset([], tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text('{"trajectories": [')
        with pytest.raises(ConfigError, match="manifest.json: cannot decode JSON"):
            read_dataset(tmp_path / "ds")

    def test_manifest_missing_keys_name_the_path(self, tmp_path):
        write_dataset([self.make_traj()], tmp_path / "ds", {"seed": 0})
        manifest = tmp_path / "ds" / "manifest.json"
        manifest.write_text('{"seed": 0}\n')
        with pytest.raises(ConfigError, match="manifest.json is missing key 'trajectories'"):
            read_dataset(tmp_path / "ds")
        manifest.write_text('{"trajectories": [{"file": "traj_000.csv"}]}\n')
        with pytest.raises(ConfigError, match=r"manifest.json trajectories\[0\] is missing "
                                              "key 'samples'"):
            read_dataset(tmp_path / "ds")

    def test_points_round_trip(self, tmp_path):
        pts = [(np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.1]))]
        write_points(pts, tmp_path / "pts.csv")
        back = read_points(tmp_path / "pts.csv")
        assert np.array_equal(back[0][0], pts[0][0])
        assert np.array_equal(back[0][1], pts[0][1])


class TestDerivativeSamples:
    def test_noise_off_is_exact_concat(self):
        model = KinematicModel()
        trajs = generate_kinematic_dataset(model, SimulationConfig(total_time=3.0),
                                           n_arcs=1, n_straights=1)
        s, u, d = derivative_samples(trajs)
        assert s.shape[0] == sum(len(t) for t in trajs)
        assert np.array_equal(d[: len(trajs[0])], trajs[0].derivs)

    def test_noise_deterministic(self):
        model = KinematicModel()
        trajs = generate_kinematic_dataset(model, SimulationConfig(total_time=3.0),
                                           n_arcs=0, n_straights=1)
        _, _, d1 = derivative_samples(trajs, noise_sigma=0.05, seed=3)
        _, _, d2 = derivative_samples(trajs, noise_sigma=0.05, seed=3)
        assert np.array_equal(d1, d2)
        assert not np.array_equal(d1, trajs[0].derivs[: len(d1)])


class TestGenerators:
    def test_dynamic_dataset_stays_in_envelope(self):
        model = DynamicModel()
        trajs = generate_dynamic_dataset(model, n_runs=3, duration=8.0, seed=1)
        for traj in trajs:
            assert traj.exit_reason == ""
            assert np.all(traj.states[:, 3] > 0.5)
            assert len(traj) == 401

    def test_dynamic_dataset_exercises_lateral_dynamics(self):
        model = DynamicModel()
        trajs = generate_dynamic_dataset(model, n_runs=4, duration=10.0, seed=2)
        vy = np.concatenate([t.states[:, 4] for t in trajs])
        omega = np.concatenate([t.states[:, 5] for t in trajs])
        assert np.max(np.abs(vy)) > 0.05
        assert np.max(np.abs(omega)) > 1.0

    def test_dynamic_dataset_run_count_outside_the_ladder(self):
        for n_runs in (12, 9, -2):
            with pytest.raises(ConfigError, match=f"n_runs={n_runs}: the ladder has 0..8"):
                generate_dynamic_dataset(DynamicModel(), n_runs=n_runs, duration=0.1)
