import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim.errors import ResourceLimitError, ValidationError
from wzsim.grid import (
    GridSpec,
    IndexCodec,
    ParticleSpec,
    StateVector,
    build_grid,
    cell_center,
    clamped_position,
    density,
    encode_state,
    marginal_density,
    quantum_particles,
)


def electron(**kw):
    return ParticleSpec(mass=1.0, charge=-1.0, **kw)


class TestGridSpec:
    def test_delta_is_exact_for_power_of_two_lengths(self):
        grid = build_grid(1.0, 4, 1)
        assert grid.delta == 2.0**-4
        assert grid.cells_per_axis == 16

    def test_delta_general_length(self):
        grid = build_grid(0.7, 3, 2)
        assert grid.delta == 0.7 / 8

    def test_axis_qubit_limits(self):
        with pytest.raises(ResourceLimitError):
            build_grid(1.0, 21, 1)
        with pytest.raises(ValidationError):
            build_grid(1.0, 0, 1)

    def test_dimension_and_length_validation(self):
        with pytest.raises(ValidationError):
            build_grid(1.0, 3, 4)
        with pytest.raises(ValidationError):
            build_grid(-1.0, 3, 1)
        with pytest.raises(ValidationError):
            build_grid(0.0, 3, 1)

    def test_cell_center(self):
        grid = build_grid(1.0, 2, 2)
        assert cell_center(grid, (1, 3)) == pytest.approx((0.375, 0.875), abs=0)

    def test_cell_center_validates_arity_and_range(self):
        grid = build_grid(1.0, 2, 2)
        with pytest.raises(ValidationError):
            cell_center(grid, (1,))
        with pytest.raises(ValidationError):
            cell_center(grid, (1, 4))


class TestParticleSpec:
    def test_kind_classification(self):
        e = electron()
        p = ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=(3,))
        n = ParticleSpec(mass=1.0, charge=0.0)
        assert e.is_quantum and e.is_electron and not e.is_nucleus
        assert not p.is_quantum and p.is_nucleus
        assert n.is_quantum and not n.is_electron and not n.is_nucleus

    def test_clamped_requires_cell(self):
        with pytest.raises(ValidationError):
            ParticleSpec(mass=1.0, charge=1.0, kind="clamped")
        with pytest.raises(ValidationError):
            ParticleSpec(mass=1.0, charge=1.0, kind="quantum", clamped_cell=(1,))

    def test_mass_positive(self):
        with pytest.raises(ValidationError):
            ParticleSpec(mass=0.0, charge=-1.0)

    def test_roster_helpers(self):
        e = electron()
        c = ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=(1, 2))
        assert quantum_particles((e, c)) == (e,)
        grid = build_grid(1.0, 2, 2)
        assert clamped_position(grid, c) == pytest.approx((0.375, 0.625), abs=0)
        with pytest.raises(ValidationError):
            clamped_position(grid, e)


class TestIndexCodec:
    def test_registers_and_dim(self):
        codec = IndexCodec(n=2, d=2, n_particles=2)
        assert codec.registers == 4
        assert codec.dim == 256

    def test_particle_major_big_endian_layout(self):
        codec = IndexCodec(n=2, d=1, n_particles=2)
        # particle 0 occupies the most significant qubits
        assert codec.flat_index(np.array([[1], [2]])) == 1 * 4 + 2

    def test_register_shift(self):
        codec = IndexCodec(n=3, d=2, n_particles=2)
        assert codec.register_shift(0, 0) == 9
        assert codec.register_shift(1, 1) == 0

    def test_total_qubit_guard(self):
        with pytest.raises(ResourceLimitError):
            IndexCodec(n=8, d=2, n_particles=2)

    @given(
        n=st.integers(min_value=1, max_value=3),
        d=st.integers(min_value=1, max_value=2),
        n_particles=st.integers(min_value=1, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_flatten_roundtrip(self, n, d, n_particles, data):
        codec = IndexCodec(n=n, d=d, n_particles=n_particles)
        cells = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 2**n - 1), min_size=d, max_size=d),
                    min_size=n_particles,
                    max_size=n_particles,
                )
            )
        )
        flat = codec.flat_index(cells)
        assert 0 <= flat < codec.dim
        assert np.array_equal(codec.unflatten(flat), cells)

    def test_register_cells_vectorized(self):
        codec = IndexCodec(n=2, d=2, n_particles=2)
        flat = np.arange(codec.dim)
        for p in range(2):
            for a in range(2):
                cells = codec.register_cells(flat, p, a)
                rebuilt = np.array([codec.unflatten(f)[p, a] for f in flat])
                assert np.array_equal(cells, rebuilt)


class TestStateVector:
    def test_norm_and_normalized(self):
        grid = build_grid(1.0, 2, 1)
        st_ = StateVector(np.ones(4, complex), grid, (electron(),))
        assert st_.norm() == pytest.approx(2.0)
        assert st_.normalized().norm() == pytest.approx(1.0)

    def test_dim_mismatch_rejected(self):
        grid = build_grid(1.0, 2, 1)
        with pytest.raises(ValidationError):
            StateVector(np.ones(5, complex), grid, (electron(),))

    def test_zero_state_cannot_normalize(self):
        grid = build_grid(1.0, 2, 1)
        st_ = StateVector(np.zeros(4, complex), grid, (electron(),))
        with pytest.raises(ValidationError):
            st_.normalized()

    def test_construction_builds_no_codec(self, monkeypatch):
        builds = []
        post_init = IndexCodec.__post_init__

        def counting(self):
            builds.append(1)
            post_init(self)

        monkeypatch.setattr(IndexCodec, "__post_init__", counting)
        grid = build_grid(1.0, 2, 2)
        st_ = StateVector(np.ones(256, complex), grid, (electron(), electron()))
        st_.normalized().with_amplitudes(np.zeros(256, complex))
        assert builds == []

    def test_total_qubit_guard(self):
        # The guard is checked before the length, so neither case
        # allocates a state: 32 qubits trip it, 30 reach the length check.
        with pytest.raises(ResourceLimitError):
            StateVector(np.ones(4, complex), build_grid(1.0, 8, 2), (electron(), electron()))
        with pytest.raises(ValidationError):
            StateVector(np.ones(4, complex), build_grid(1.0, 5, 3), (electron(), electron()))
        with pytest.raises(ValidationError):
            StateVector(np.ones(4, complex), build_grid(1.0, 2, 1), ())

    def test_amplitudes_are_contiguous(self):
        grid = build_grid(1.0, 2, 1)
        strided = np.ones(8, complex)[::2]
        st_ = StateVector(strided, grid, (electron(),))
        assert st_.amplitudes.flags.c_contiguous

    def test_encode_state_gaussian(self):
        grid = build_grid(1.0, 2, 1)

        def sampler(pos):
            return np.exp(-0.5 * ((pos[0] - 0.5) / 0.2) ** 2)

        st_ = encode_state(grid, (electron(),), sampler)
        assert st_.norm() == pytest.approx(1.0)
        p = density(st_)
        # symmetric about the box center
        assert p[1] == pytest.approx(p[2], rel=1e-12)
        assert p[0] == pytest.approx(p[3], rel=1e-12)
        assert p[1] > p[0]

    def test_density_sums_to_one(self):
        grid = build_grid(1.0, 2, 2)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        st_ = StateVector(amps, grid, (electron(),)).normalized()
        assert density(st_).sum() == pytest.approx(1.0)

    def test_marginal_of_product_state_factorizes(self):
        grid = build_grid(1.0, 2, 1)
        a = np.array([1.0, 2.0, 0.5, 1.5], dtype=complex)
        b = np.array([0.3, 1.0, 0.7, 0.1], dtype=complex)
        joint = np.kron(a, b)
        st_ = StateVector(joint, grid, (electron(), electron())).normalized()
        m0 = marginal_density(st_, 0)
        m1 = marginal_density(st_, 1)
        assert m0.sum() == pytest.approx(1.0)
        assert np.allclose(m0, np.abs(a) ** 2 / np.sum(np.abs(a) ** 2), atol=1e-12)
        assert np.allclose(m1, np.abs(b) ** 2 / np.sum(np.abs(b) ** 2), atol=1e-12)

    def test_marginal_particle_out_of_range(self):
        grid = build_grid(1.0, 2, 1)
        st_ = StateVector(np.ones(4, complex), grid, (electron(),)).normalized()
        with pytest.raises(ValidationError):
            marginal_density(st_, 1)
