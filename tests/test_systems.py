import json

import numpy as np
import pytest

from ddstab.errors import (
    DimensionMismatch,
    EmptyData,
    InvalidParams,
    LengthMismatch,
)
from ddstab.systems import (
    DataBatch,
    HeatCascadeParams,
    LinearSystem,
    assemble_multi_trajectory,
    assemble_single_trajectory,
    counterexample_sequences,
    default_cascade_params,
    heat_cascade_discretize,
    reference_cascade_scenario,
    simulate,
)


class TestHeatCascadeDiscretize:
    def test_eigenvalues_reference_instance(self):
        p = default_cascade_params(n_modes=3)
        assert p.eigenvalue(0) == pytest.approx(-0.1)
        assert p.eigenvalue(1) == pytest.approx(-0.2 * np.pi**2 - 0.1)

    def test_mode_zero_decay_entry(self):
        p = default_cascade_params(n_modes=2)
        sys_ = heat_cascade_discretize(p)
        assert sys_.A[2, 2] == pytest.approx(np.exp(-0.005))

    def test_block_lower_triangular(self):
        p = default_cascade_params(n_modes=8)
        sys_ = heat_cascade_discretize(p)
        assert np.array_equal(sys_.A[:2, 2:], np.zeros((2, 8)))
        assert np.array_equal(sys_.B[2:], np.zeros((8, 1)))

    def test_fast_diffusion_kills_tail(self):
        p = HeatCascadeParams(
            A_v=np.eye(2), B_v=np.ones((2, 1)), C_v=np.ones((1, 2)),
            a=200.0, b=0.0, tau=0.5, n_modes=4,
        )
        sys_ = heat_cascade_discretize(p)
        assert np.all(np.abs(np.diag(sys_.A)[3:]) < 1e-300)

    def test_zero_eigenvalue_integral_limit(self):
        # b = 0 makes lambda_0 = 0; the coupling integral degenerates to tau
        p = HeatCascadeParams(
            A_v=np.eye(2), B_v=np.ones((2, 1)), C_v=np.array([[0.5, 1.0]]),
            a=0.3, b=0.0, tau=0.07, n_modes=2,
        )
        sys_ = heat_cascade_discretize(p)
        assert np.allclose(sys_.A[2, :2], 0.07 * np.array([0.5, 1.0]))

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            HeatCascadeParams(
                A_v=np.eye(2), B_v=np.ones((2, 1)), C_v=np.ones((1, 2)),
                a=-1.0, b=0.0, tau=0.05,
            )

    @pytest.mark.parametrize(
        "A_v, C_v", [(np.ones((2, 3)), np.ones((1, 2))), (np.eye(2), np.ones((1, 3)))],
        ids=["A_v-not-square", "C_v-wrong-width"],
    )
    def test_inconsistent_head_shapes(self, A_v, C_v):
        with pytest.raises(InvalidParams):
            HeatCascadeParams(A_v=A_v, B_v=np.ones((2, 1)), C_v=C_v, a=0.1, b=0.0, tau=0.05)

    @pytest.mark.parametrize("a,b,tau", [(0.2, -0.1, 0.05), (0.07, 0.4, 0.3), (1.5, 0.0, 0.02)])
    def test_coupling_integral_against_rk4(self, a, b, tau):
        # hold the boundary drive constant and integrate z' = lambda_n z + 1
        # from z(0) = 0; the exact update is the coupling integral
        p = HeatCascadeParams(
            A_v=np.eye(2), B_v=np.ones((2, 1)), C_v=np.array([[1.0, 0.0]]),
            a=a, b=b, tau=tau, n_modes=4,
        )
        sys_ = heat_cascade_discretize(p)
        phi0 = np.array([1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
        for mode in range(4):
            lam = p.eigenvalue(mode)
            steps = 20000
            h = tau / steps
            z = 0.0
            f = lambda zz: lam * zz + 1.0
            for _ in range(steps):
                k1 = f(z)
                k2 = f(z + 0.5 * h * k1)
                k3 = f(z + 0.5 * h * k2)
                k4 = f(z + h * k3)
                z += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            coupling = sys_.A[2 + mode, 0]  # C_v picks the first v entry
            assert coupling == pytest.approx(phi0[mode] * z, rel=1e-10)


class TestLinearSystem:
    @pytest.mark.parametrize(
        "A, B, error",
        [
            (np.ones((2, 3)), np.ones((2, 1)), DimensionMismatch),
            (np.eye(2), np.ones((3, 1)), DimensionMismatch),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((2, 1)), InvalidParams),
        ],
        ids=["A-not-square", "B-rows", "non-finite"],
    )
    def test_invalid_matrices(self, A, B, error):
        with pytest.raises(error):
            LinearSystem(A=A, B=B)


class TestSimulate:
    def test_single_step(self):
        sys_ = LinearSystem(A=np.zeros((2, 2)), B=np.eye(2))
        u = np.array([3.0, -1.0])
        traj = simulate(sys_, np.zeros(2), [u])
        assert len(traj) == 2
        assert np.array_equal(traj[1], u)

    def test_identity_dynamics_constant(self):
        sys_ = LinearSystem(A=np.eye(3), B=np.zeros((3, 1)))
        x0 = np.array([1.0, -2.0, 0.5])
        traj = simulate(sys_, x0, [np.zeros(1)] * 5)
        for x in traj:
            assert np.array_equal(x, x0)

    def test_empty_inputs(self):
        sys_ = LinearSystem(A=np.eye(2), B=np.zeros((2, 1)))
        assert len(simulate(sys_, np.zeros(2), [])) == 1

    def test_dimension_mismatch(self):
        sys_ = LinearSystem(A=np.eye(2), B=np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            simulate(sys_, np.zeros(3), [])
        with pytest.raises(DimensionMismatch, match="input 1 has dim 2"):
            simulate(sys_, np.zeros(2), [np.zeros(1), np.zeros(2)])

    def test_modes_follow_scalar_recursions(self):
        # each modal coordinate is an independent scalar recursion driven by C_v v(k)
        rng = np.random.default_rng(42)
        p = HeatCascadeParams(
            A_v=rng.standard_normal((2, 2)) * 0.4,
            B_v=rng.standard_normal((2, 1)),
            C_v=rng.standard_normal((1, 2)),
            a=0.11, b=0.23, tau=0.08, n_modes=6,
        )
        sys_ = heat_cascade_discretize(p)
        x0 = rng.standard_normal(sys_.n)
        inputs = [rng.standard_normal(1) for _ in range(7)]
        traj = simulate(sys_, x0, inputs)

        v = x0[:2].copy()
        z = x0[2:].copy()
        coupling = sys_.A[2:, :2]
        decay = np.diag(sys_.A)[2:]
        for k, u in enumerate(inputs):
            z = decay * z + coupling @ v
            v = p.A_v @ v + p.B_v @ u
            assert np.linalg.norm(traj[k + 1][2:] - z) < 1e-12 * (1 + np.linalg.norm(z))
            assert np.linalg.norm(traj[k + 1][:2] - v) < 1e-12 * (1 + np.linalg.norm(v))

    def test_truncation_consistency(self):
        # retained coordinates do not depend on how many tail modes are kept
        _, b10, _ = reference_cascade_scenario(n_modes=10, n_samples=5)
        _, b50, _ = reference_cascade_scenario(n_modes=50, n_samples=5)
        assert np.max(np.abs(b50.x0[:, :12] - b10.x0)) < 1e-12
        assert np.max(np.abs(b50.x1[:, :12] - b10.x1)) < 1e-12


class TestAssembly:
    def test_shortest_batch(self):
        x0, x1 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        batch = assemble_single_trajectory([x0, x1], [np.array([5.0])])
        assert batch.N == 1
        assert np.array_equal(batch.x1[0], x1)
        assert np.array_equal(batch.x0[0], x0)
        assert batch.u0[0, 0] == 5.0

    def test_five_samples_from_six_states(self):
        rng = np.random.default_rng(0)
        traj = [rng.standard_normal(3) for _ in range(6)]
        inputs = [rng.standard_normal(2) for _ in range(5)]
        batch = assemble_single_trajectory(traj, inputs)
        assert batch.N == 5 and batch.n == 3 and batch.m == 2
        for k in range(5):
            assert np.array_equal(batch.x0[k], traj[k])
            assert np.array_equal(batch.x1[k], traj[k + 1])

    def test_length_one_trajectory_rejected(self):
        with pytest.raises(EmptyData):
            assemble_single_trajectory([np.zeros(2)], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            assemble_single_trajectory([np.zeros(2)] * 3, [np.zeros(1)] * 3)

    def test_multi_needs_a_segment(self):
        with pytest.raises(EmptyData):
            assemble_multi_trajectory([])

    def test_multi_single_segment_identical(self):
        rng = np.random.default_rng(1)
        traj = [rng.standard_normal(2) for _ in range(4)]
        inputs = [rng.standard_normal(1) for _ in range(3)]
        single = assemble_single_trajectory(traj, inputs)
        multi = assemble_multi_trajectory([(traj, inputs)])
        assert np.array_equal(single.x1, multi.x1)
        assert np.array_equal(single.u0, multi.u0)

    def test_multi_concatenation_order(self):
        rng = np.random.default_rng(2)
        seg1 = ([rng.standard_normal(2) for _ in range(3)], [rng.standard_normal(1) for _ in range(2)])
        seg2 = ([rng.standard_normal(2) for _ in range(4)], [rng.standard_normal(1) for _ in range(3)])
        batch = assemble_multi_trajectory([seg1, seg2])
        assert batch.N == 5
        assert np.array_equal(batch.x0[0], seg1[0][0])
        assert np.array_equal(batch.x0[2], seg2[0][0])

    def test_same_state_different_inputs(self):
        x0 = np.array([1.0, 0.0])
        segs = [
            ([x0, np.array([0.3, 0.3])], [np.array([1.0])]),
            ([x0, np.array([-0.3, 0.6])], [np.array([-2.0])]),
        ]
        batch = assemble_multi_trajectory(segs)
        assert np.array_equal(batch.x0[0], batch.x0[1])
        assert batch.u0[0, 0] != batch.u0[1, 0]

    def test_segment_errors_carry_index(self):
        with pytest.raises(LengthMismatch, match="segment 1"):
            assemble_multi_trajectory(
                [
                    ([np.zeros(2), np.ones(2)], [np.zeros(1)]),
                    ([np.zeros(2)] * 3, [np.zeros(1)] * 5),
                ]
            )


class TestCounterexampleSequences:
    def test_smallest(self):
        batch = counterexample_sequences(1)
        assert np.array_equal(batch.x0, np.array([[1.0]]))
        assert np.array_equal(batch.u0, np.array([[1.0]]))
        assert np.array_equal(batch.x1, np.array([[0.0]]))

    def test_second_column(self):
        batch = counterexample_sequences(2)
        assert np.array_equal(batch.Xi0[:, 1], np.array([0.0, 0.5]))
        assert batch.u0[1, 0] == pytest.approx(2.0 ** -1.5)

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_x1_all_zero(self, n):
        assert not counterexample_sequences(n).x1.any()


class TestDataBatch:
    def test_generated_batch_residual(self):
        sys_, batch, _ = reference_cascade_scenario(n_modes=12, n_samples=6)
        for k in range(batch.N):
            res = np.linalg.norm(batch.x1[k] - sys_.A @ batch.x0[k] - sys_.B @ batch.u0[k])
            assert res <= 1e-12 * (1 + np.linalg.norm(batch.x0[k]) + np.linalg.norm(batch.u0[k]))

    def test_immutable(self):
        batch = counterexample_sequences(3)
        with pytest.raises(ValueError):
            batch.x0[0, 0] = 7.0

    def test_json_round_trip(self, tmp_path):
        _, batch, _ = reference_cascade_scenario(n_modes=4, n_samples=3)
        path = tmp_path / "batch.json"
        batch.save(path)
        loaded = DataBatch.load(path)
        assert np.array_equal(loaded.x1, batch.x1)
        assert np.array_equal(loaded.x0, batch.x0)
        assert np.array_equal(loaded.u0, batch.u0)
        assert loaded.meta == batch.meta
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["N"] == 3 and payload["n"] == 6 and payload["m"] == 1

    def test_declared_dims_validated(self):
        with pytest.raises(InvalidParams):
            DataBatch.from_dict({"n": 9, "x1": [[0.0]], "x0": [[0.0]], "u0": [[0.0]]})

    def test_zero_state_columns_rejected(self):
        with pytest.raises(EmptyData):
            DataBatch(x1=np.zeros((3, 0)), x0=np.zeros((3, 0)), u0=np.ones((3, 1)))
        with pytest.raises(EmptyData):
            DataBatch.from_dict({"x1": [[], []], "x0": [[], []], "u0": [[1.0], [2.0]]})

    def test_no_samples_rejected(self):
        with pytest.raises(EmptyData):
            DataBatch(x1=np.zeros((0, 2)), x0=np.zeros((0, 2)), u0=np.zeros((0, 1)))

    @pytest.mark.parametrize("bad", ["x1", "x0", "u0"])
    def test_arrays_must_be_matrices(self, bad):
        """A 3-D x1, x0 or u0 is a dimension error, not a later numpy one."""
        arrays = {"x1": np.zeros((2, 2)), "x0": np.zeros((2, 2)), "u0": np.zeros((2, 1))}
        arrays[bad] = arrays[bad][..., None]
        with pytest.raises(DimensionMismatch, match=f"{bad} must be a matrix, got 3 dimensions"):
            DataBatch(**arrays)

    def test_sample_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            DataBatch(x1=np.zeros((2, 2)), x0=np.zeros((2, 2)), u0=np.zeros((3, 1)))
