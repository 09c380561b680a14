import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim import grid as grid_mod
from wzsim.errors import ResourceLimitError, ValidationError
from wzsim.grid import (
    GridSpec,
    IndexCodec,
    ParticleSpec,
    StateVector,
    build_grid,
    cell_centers,
    clamped_position,
    density,
    encode_state,
    marginal_density,
    quantum_particles,
    register_views,
)
from wzsim.experiments import cell_indicator


def electron(**kw):
    return ParticleSpec(mass=1.0, charge=-1.0, **kw)


def nucleus(cell):
    return ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=cell)


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
        # A float or bool qubit count is neither truncated nor taken as 1.
        for n in (2.5, True):
            with pytest.raises(ValidationError):
                GridSpec(1.0, n, 1)
        with pytest.raises(ValidationError):
            build_grid(1.0, 2.7, 1)

    def test_dimension_and_length_validation(self):
        with pytest.raises(ValidationError):
            build_grid(1.0, 3, 4)
        with pytest.raises(ValidationError):
            GridSpec(1.0, 3, True)
        for length in (True, np.bool_(True), "1.0"):
            with pytest.raises(ValidationError):
                GridSpec(length, 3, 1)
            with pytest.raises(ValidationError):
                build_grid(length, 3, 1)
        with pytest.raises(ValidationError):
            build_grid(-1.0, 3, 1)
        with pytest.raises(ValidationError):
            build_grid(0.0, 3, 1)
        # Lengths whose delta^-2 or L^3 leave the double range.
        for length in (5e-324, 1e-100, 1e101, 1e308):
            with pytest.raises(ValidationError):
                build_grid(length, 3, 1)

    def test_numpy_integers_are_accepted(self):
        grid = build_grid(1.0, np.int64(3), np.int32(2))
        assert grid.cells_per_axis == 8 and grid.delta == 0.125

    def test_clamped_position(self):
        grid = build_grid(1.0, 2, 2)
        assert clamped_position(grid, nucleus((1, 3))) == pytest.approx((0.375, 0.875), abs=0)

    def test_clamped_position_validates_arity_and_range(self):
        grid = build_grid(1.0, 2, 2)
        with pytest.raises(ValidationError, match="expected 2 axis indices, got 1"):
            clamped_position(grid, nucleus((1,)))
        with pytest.raises(ValidationError, match=r"cell index 4 outside \[0, 4\)"):
            clamped_position(grid, nucleus((1, 4)))


class TestParticleSpec:
    def test_kind_classification(self):
        e = electron()
        p = ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=(3,))
        n = ParticleSpec(mass=1.0, charge=0.0)
        assert e.is_quantum and e.is_electron and not e.is_nucleus
        assert not p.is_quantum and p.is_nucleus
        assert n.is_quantum and not n.is_electron and not n.is_nucleus
        assert (e.kinetic_term, p.kinetic_term, n.kinetic_term) == ("T_e", "T_n", "T_e")

    def test_clamped_requires_cell(self):
        with pytest.raises(ValidationError):
            ParticleSpec(mass=1.0, charge=1.0, kind="clamped")
        with pytest.raises(ValidationError):
            ParticleSpec(mass=1.0, charge=1.0, kind="quantum", clamped_cell=(1,))
        # Each cell index is an integer: none is truncated or read from a bool.
        for cell in ((2.7, 1), (2, True), (np.float64(2.0), 1)):
            with pytest.raises(ValidationError):
                ParticleSpec(mass=1.0, charge=1.0, kind="clamped", clamped_cell=cell)
        kept = ParticleSpec(mass=1.0, charge=1.0, kind="clamped", clamped_cell=(np.int64(2), 1))
        assert kept.clamped_cell == (2, 1) and type(kept.clamped_cell[0]) is int

    def test_mass_positive(self):
        for mass in (0.0, 5e-324, 1e101, float("nan"), True, np.bool_(True)):
            with pytest.raises(ValidationError):
                ParticleSpec(mass=mass, charge=-1.0)
        # The charge is a finite real number too.
        for charge in (True, False, float("nan"), float("inf"), -float("inf"), "1", 10**400):
            with pytest.raises(ValidationError):
                ParticleSpec(mass=1.0, charge=charge)

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

    def test_flat_index_rejects_a_wrong_shape(self):
        codec = IndexCodec(n=2, d=2, n_particles=2)
        for cells in ([1, 2, 3, 0], [[1, 2, 3, 0]], [[1, 2], [3, 0], [0, 0]], [1, 2, 3], 1):
            with pytest.raises(ValidationError, match="shape"):
                codec.flat_index(cells)

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


# (n, d, quantum particles): one to six registers.
LAYOUTS = [(1, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 3), (1, 3, 2), (2, 2, 2)]


def shift_and_mask(flat, n, registers, r):
    """Register r's cell in flat index flat: the n bits above the
    (registers - 1 - r) * n low bits."""
    return (flat >> (registers - 1 - r) * n) & ((1 << n) - 1)


class TestRegisterLayout:
    """The basis index is the C-order ravel of the (D,) * R register tensor."""

    @pytest.mark.parametrize("n, d, n_q", LAYOUTS)
    def test_tensor_axes_and_views_are_the_registers(self, n, d, n_q):
        grid = build_grid(1.0, n, d)
        codec = IndexCodec(n=n, d=d, n_particles=n_q)
        R = n_q * d
        flat = np.arange(codec.dim)
        state = StateVector(flat.astype(complex), grid, (electron(),) * n_q)
        t = state.tensor
        assert t.shape == (2**n,) * R and np.shares_memory(t, state.amplitudes)
        at = t.real.astype(np.int64)  # the flat index held at each tensor position
        unflat = np.array([codec.unflatten(m).reshape(-1) for m in at.reshape(-1)])
        views = np.broadcast_arrays(*register_views(np.arange(2**n), R))
        for r, (axis_cells, view) in enumerate(zip(np.indices(t.shape), views)):
            assert np.array_equal(axis_cells, shift_and_mask(at, n, R, r))
            assert np.array_equal(axis_cells.reshape(-1), unflat[:, r])
            assert np.array_equal(view, axis_cells)
        # GridSpec.registers(q) lists the tensor axes of particle q's cells.
        per_axis = unflat.reshape(-1, n_q, d)
        for q in range(n_q):
            for axis, r in enumerate(grid.registers(q)):
                assert np.array_equal(np.indices(t.shape)[r].reshape(-1), per_axis[:, q, axis])
        for m in flat:
            cells = [shift_and_mask(m, n, R, r) for r in range(R)]
            assert codec.flat_index(np.reshape(cells, (n_q, d))) == m

    @pytest.mark.parametrize("length, n", [(1.0, 1), (0.7, 3), (3.3, 6), (1e-3, 10)])
    def test_cell_centers_match_clamped_position(self, length, n):
        grid = build_grid(length, n, 1)
        centers = cell_centers(grid)
        assert centers.shape == (2**n,)
        for i in range(2**n):
            assert centers[i] == grid.delta * (i + 0.5)
            assert centers[i].tobytes() == clamped_position(grid, nucleus((i,))).tobytes()

    @pytest.mark.parametrize("n, d, n_q", LAYOUTS)
    def test_encode_state_matches_shift_and_mask(self, n, d, n_q):
        grid = build_grid(0.9, n, d)
        R = n_q * d
        weights = np.arange(1.0, R + 1.0).reshape(n_q, d)

        def sampler(*positions):
            pos = np.array(positions)
            return complex(np.sum(weights * pos), np.prod(np.cos(pos)))

        state = encode_state(grid, (electron(),) * n_q, sampler)
        amps = np.empty(2 ** (n * R), dtype=complex)
        for m in range(amps.size):
            cells = [shift_and_mask(m, n, R, r) for r in range(R)]
            pos = grid.delta * (np.array(cells, dtype=float) + 0.5)
            amps[m] = sampler(*pos.reshape(n_q, d))
        assert state.amplitudes.tobytes() == (amps / np.linalg.norm(amps)).tobytes()

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 1), (2, 2), (3, 2), (1, 3), (2, 3)])
    def test_cell_indicator_matches_shift_and_mask(self, n, d):
        grid = build_grid(1.0, n, d)
        D = 2**n
        idx = np.arange(D**d)
        for ranges in ([(0, D - 1)] * d, [(1, D - 2)] * d, [(a % D, D - 1) for a in range(d)]):
            keep = np.ones(idx.size, dtype=bool)
            for a, (lo, hi) in enumerate(ranges):
                cells = shift_and_mask(idx, n, d, a)
                keep &= (cells >= lo) & (cells <= hi)
            expected = keep.astype(np.complex128)
            assert cell_indicator(grid, ranges).tobytes() == expected.tobytes()


class TestStateVector:
    def test_norm_and_normalized(self):
        grid = build_grid(1.0, 2, 1)
        st_ = StateVector(np.ones(4, complex), grid, (electron(),))
        assert st_.norm() == pytest.approx(2.0)
        assert st_.normalized().norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_norm_is_bit_equal_to_linalg_norm(self, n):
        # From 2 to 2^20 amplitudes, a random state and its unit multiple:
        # bit for bit up to one chunk, whose sum is one pair of dot
        # products. Above it the chunks are summed in order, and the norm
        # agrees to 1e-15 with the one of the correctly rounded sum of
        # squares (np.linalg.norm's own single pair is off by up to 1.3e-15
        # at 2^20).
        grid = build_grid(1.0, n, 1)
        rng = np.random.default_rng(n)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for a in (amps, amps / np.linalg.norm(amps)):
            norm = StateVector(a, grid, (electron(),)).norm()
            assert type(norm) is float
            if 2**n <= grid_mod.NORM_CHUNK:
                assert norm == float(np.linalg.norm(a))
            else:
                exact = math.sqrt(math.fsum(np.concatenate([a.real**2, a.imag**2])))
                assert abs(norm - exact) <= 1e-15 * exact

    def test_norm_does_not_depend_on_blas_threads(self):
        # OpenBLAS threads a ddot of 2^20 terms, and then sums in another
        # order; no chunk of the norm is that long. A fresh interpreter per
        # thread count, as OpenBLAS reads it once.
        code = (
            "import numpy as np\n"
            "from wzsim.grid import vector_norm\n"
            "rng = np.random.default_rng(0)\n"
            "a = (rng.normal(size=2**20) + 1j * rng.normal(size=2**20)) * 2.0**-11\n"
            "print(repr(vector_norm(a)))\n"
        )
        src = Path(grid_mod.__file__).resolve().parents[1]
        printed = []
        for threads in ("1", "4"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert out.returncode == 0, out.stderr
            printed.append(out.stdout)
        assert printed[0] == printed[1]

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

    @pytest.mark.parametrize("particle", [1.0, True, 0.0, False])
    def test_marginal_particle_must_be_an_integer(self, particle):
        grid = build_grid(1.0, 2, 1)
        st_ = StateVector(np.ones(16, complex), grid, (electron(), electron())).normalized()
        with pytest.raises(ValidationError, match="particle must be an integer"):
            marginal_density(st_, particle)

    @pytest.mark.parametrize("n, d, particles", [(6, 2, 1), (4, 2, 2), (5, 1, 3)])
    def test_marginal_in_slabs_is_the_dense_sum(self, monkeypatch, n, d, particles):
        # One particle in 2D, two in 2D and three in 1D. A cap of a 16th of
        # the density cuts particle 0's cells into 16 slabs or more: every
        # marginal is the dense reduction byte for byte, and the peak stays
        # under two caps beside the output, where the dense one holds the
        # whole density.
        grid = build_grid(1.0, n, d)
        rng = np.random.default_rng(particles)
        dim = 1 << (n * d * particles)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st_ = StateVector(amps, grid, (electron(),) * particles).normalized()
        cap = 8 * dim // 16
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", cap)
        dens = (np.abs(st_.amplitudes) ** 2).reshape((1 << (n * d),) * particles)
        for p in range(particles):
            others = tuple(ax for ax in range(particles) if ax != p)
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                marginal = marginal_density(st_, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(marginal, dens.sum(axis=others) if others else dens)
            assert peak - base < 2 * cap + marginal.nbytes
