import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim import grid as grid_mod
from wzsim.errors import ValidationError
from wzsim.grid import IndexCodec, ParticleSpec, build_grid, cell_center
from wzsim.potential import (
    antidiagonal_fold,
    antidiagonal_symmetry_check,
    build_coulomb_diagonal,
    composite_potential,
    level_spacing,
    pair_energy,
    potential_bounds,
    quantize_levels,
)


def electron():
    return ParticleSpec(mass=1.0, charge=-1.0)


def proton_clamped(cell):
    return ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=cell)


def loop_coulomb_oracle(grid, particles, term):
    """Scalar reimplementation over explicit index tuples."""
    quantum = [p for p in particles if p.is_quantum]
    codec = IndexCodec(n=grid.n, d=grid.d, n_particles=len(quantum))

    def include(p, q):
        if term == "all":
            return True
        if term == "ee":
            return p.is_electron and q.is_electron
        if term == "nn":
            return p.is_nucleus and q.is_nucleus
        return (p.is_electron and q.is_nucleus) or (p.is_nucleus and q.is_electron)

    energies = np.zeros(codec.dim)
    for flat in range(codec.dim):
        cells = codec.unflatten(flat)
        positions = []
        slot = 0
        for p in particles:
            if p.is_quantum:
                positions.append(grid.delta * (cells[slot] + 0.5))
                slot += 1
            else:
                positions.append(np.asarray(cell_center(grid, p.clamped_cell)))
        total = 0.0
        for i in range(len(particles)):
            for j in range(i + 1, len(particles)):
                if include(particles[i], particles[j]):
                    total += pair_energy(
                        positions[i], positions[j], particles[i].charge * particles[j].charge, grid.delta
                    )
        energies[flat] = total
    return energies


def loop_wall_oracle(grid, n_particles, v_wall):
    """v_wall added once per register at cell 0 or D - 1, in register
    order, one basis state at a time."""
    codec = IndexCodec(n=grid.n, d=grid.d, n_particles=n_particles)
    edges = (0, grid.cells_per_axis - 1)
    energies = np.zeros(codec.dim)
    for flat in range(codec.dim):
        total = 0.0
        for c in codec.unflatten(flat).reshape(-1):
            total += v_wall if c in edges else 0.0
        energies[flat] = total
    return energies


class TestPairEnergy:
    def test_unit_distance(self):
        assert pair_energy([0.0], [1.0], 1.0, 0.5) == 1.0

    def test_same_cell_clamps_to_delta(self):
        assert pair_energy([0.25], [0.25], 1.0, 0.125) == 1.0 / 0.125

    def test_charge_product_sign(self):
        assert pair_energy([0.0], [2.0], -3.0, 0.5) == -1.5

    def test_delta_validated(self):
        with pytest.raises(ValidationError):
            pair_energy([0.0], [1.0], 1.0, 0.0)


class TestCoulombDiagonal:
    def test_two_electrons_match_loop_oracle(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), electron())
        diag = build_coulomb_diagonal(grid, roster, "ee")
        assert np.allclose(diag, loop_coulomb_oracle(grid, roster, "ee"), atol=1e-14)

    def test_electron_nucleus_with_clamped_match_loop_oracle(self):
        grid = build_grid(1.0, 2, 2)
        roster = (electron(), proton_clamped((1, 2)))
        diag = build_coulomb_diagonal(grid, roster, "en")
        assert np.allclose(diag, loop_coulomb_oracle(grid, roster, "en"), atol=1e-14)
        assert np.all(diag < 0)

    def test_term_filtering(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), electron(), proton_clamped((1,)))
        ee = build_coulomb_diagonal(grid, roster, "ee")
        en = build_coulomb_diagonal(grid, roster, "en")
        nn = build_coulomb_diagonal(grid, roster, "nn")
        full = build_coulomb_diagonal(grid, roster, "all")
        assert np.all(nn == 0.0)
        assert np.allclose(ee + en + nn, full, atol=1e-14)

    def test_mixed_quantum_and_clamped_three_body(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), proton_clamped((0,)), proton_clamped((3,)))
        for term in ("en", "nn", "all"):
            diag = build_coulomb_diagonal(grid, roster, term)
            assert np.allclose(diag, loop_coulomb_oracle(grid, roster, term), atol=1e-12)

    def test_unknown_term_rejected(self):
        grid = build_grid(1.0, 2, 1)
        with pytest.raises(ValidationError):
            build_coulomb_diagonal(grid, (electron(),), "eee")

    def test_needs_a_quantum_particle(self):
        grid = build_grid(1.0, 2, 1)
        with pytest.raises(ValidationError):
            build_coulomb_diagonal(grid, (proton_clamped((0,)),), "all")


class TestWall:
    def test_one_dimensional_wall(self):
        grid = build_grid(1.0, 2, 1)
        w = composite_potential(grid, (electron(),), ("wall",), v_wall=7.0)
        assert np.array_equal(w, [7.0, 0.0, 0.0, 7.0])

    def test_two_dimensional_wall_corner_counts_both_axes(self):
        grid = build_grid(1.0, 1, 2)
        w = composite_potential(grid, (electron(),), ("wall",), v_wall=1.0)
        # Every cell of the 2x2 grid touches both walls on both axes.
        assert np.array_equal(w, [2.0, 2.0, 2.0, 2.0])

    def test_wall_rejects_negative_height(self):
        grid = build_grid(1.0, 2, 1)
        with pytest.raises(ValidationError):
            composite_potential(grid, (electron(),), ("wall",), v_wall=-1.0)


class TestComposite:
    def test_sum_of_selected_terms(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), electron())
        full = composite_potential(grid, roster, ("U_ee", "wall"), v_wall=5.0)
        ee = build_coulomb_diagonal(grid, roster, "ee")
        wall = loop_wall_oracle(grid, 2, 5.0)
        assert np.allclose(full, ee + wall, atol=1e-14)

    @pytest.mark.parametrize(
        "n, d, particles, quantum_proton",
        [(4, 1, 1, False), (2, 3, 1, False), (3, 2, 2, False), (3, 1, 3, False),
         (2, 3, 2, True), (2, 2, 3, True)],
    )
    def test_tables_match_the_loop_oracles(self, n, d, particles, quantum_proton):
        # particles quantum particles, the last a proton in the last two
        # layouts, so that U_en and U_nn have quantum pairs too; and two
        # clamped nuclei, so that U_nn adds a constant.
        grid = build_grid(3.3, n, d)
        D = grid.cells_per_axis
        roster = (electron(),) * (particles - quantum_proton) + (
            proton_clamped((1,) * d),
            ParticleSpec(mass=1836.0, charge=2.0, kind="clamped", clamped_cell=(D - 2,) * d),
        )
        if quantum_proton:
            roster += (ParticleSpec(mass=1836.0, charge=1.0),)
        full = composite_potential(grid, roster, ("U_ee", "U_en", "U_nn", "wall"), v_wall=0.1)
        expected = loop_wall_oracle(grid, particles, 0.1)
        for term in ("ee", "en", "nn"):
            coulomb = loop_coulomb_oracle(grid, roster, term)
            scale = np.max(np.abs(coulomb))
            diag = build_coulomb_diagonal(grid, roster, term)
            assert np.max(np.abs(diag - coulomb)) <= 1e-14 * scale
            expected += coulomb
        assert full.shape == (D ** (particles * d),)
        assert np.max(np.abs(full - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_sum_is_added_into_out(self):
        # out is the running sum, here the real part of a complex array:
        # zeroed, it receives the diagonal itself; otherwise the terms are
        # added to what it holds.
        grid = build_grid(2.0, 2, 2)
        roster = (electron(), electron(), proton_clamped((1, 2)))
        terms = ("U_ee", "U_en", "wall")
        diag = composite_potential(grid, roster, terms, v_wall=3.0)
        buffer = np.zeros(diag.size, dtype=np.complex128)
        total = composite_potential(grid, roster, terms, v_wall=3.0, out=buffer.real)
        assert np.shares_memory(total, buffer)
        assert np.array_equal(buffer.real, diag) and np.all(buffer.imag == 0.0)
        composite_potential(grid, roster, terms, v_wall=3.0, out=buffer.real)
        assert np.max(np.abs(buffer.real - 2 * diag)) <= 1e-14 * np.max(np.abs(diag))

    @pytest.mark.parametrize("n, d", [(6, 1), (4, 2), (3, 3)])
    def test_row_blocks_do_not_change_bytes(self, monkeypatch, n, d):
        # A cap of three rows of the D^d table of a particle and a clamped
        # nucleus cuts it into uneven blocks; each entry is the same.
        grid = build_grid(2.0, n, d)
        D = grid.cells_per_axis
        roster = (electron(), proton_clamped((1,) * d), proton_clamped((D - 2,) * d))
        whole = composite_potential(grid, roster, ("U_en", "wall"), v_wall=0.1)
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", 3 * 8 * D ** (d - 1))
        assert len(grid_mod.slab_bounds(D, 8 * D ** (d - 1))) - 1 == -(-D // 3)
        blocks = composite_potential(grid, roster, ("U_en", "wall"), v_wall=0.1)
        assert np.array_equal(blocks, whole)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_wall_adds_in_register_order(self, d):
        # 0.1 is inexact, so any change in the order of the sums would show:
        # six walls in 3D sum to 0.6 one register at a time, and to
        # 0.6000000000000001 as two particles' sums of three.
        grid = build_grid(1.0, 2, d)
        roster = (electron(), electron())
        wall = composite_potential(grid, roster, ("wall",), v_wall=0.1)
        assert np.array_equal(wall, loop_wall_oracle(grid, 2, 0.1))

    def test_no_applicable_terms_returns_none(self):
        grid = build_grid(1.0, 2, 1)
        assert composite_potential(grid, (electron(),), ()) is None

    @pytest.mark.parametrize(
        "d, roster, terms",
        [
            # 1e308 on both axes of a 2D corner.
            (2, (electron(),), ("wall",)),
            # A charge product of -1e616.
            (
                1,
                (
                    ParticleSpec(mass=1.0, charge=-1e308),
                    ParticleSpec(mass=1836.0, charge=1e308, kind="clamped", clamped_cell=(1,)),
                ),
                ("U_en",),
            ),
        ],
        ids=["wall-corner", "charges"],
    )
    def test_non_finite_sum_raises(self, d, roster, terms):
        grid = build_grid(1.0, 2, d)
        with pytest.raises(ValidationError, match="non-finite"):
            composite_potential(grid, roster, terms, v_wall=1e308)

    def test_finite_terms_with_a_non_finite_sum_raise(self):
        # Each term peaks at 1e308; where both electrons sit in wall cell
        # 0, U_ee + wall is 2e308.
        grid = build_grid(1.0, 2, 1)
        roster = (ParticleSpec(mass=1.0, charge=-5e153),) * 2
        for term in ("U_ee", "wall"):
            assert np.all(np.isfinite(composite_potential(grid, roster, (term,), v_wall=5e307)))
        with pytest.raises(ValidationError, match="non-finite"):
            composite_potential(grid, roster, ("U_ee", "wall"), v_wall=5e307)


class TestBoundsAndLevels:
    def test_bounds_two_electrons_one_nucleus(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(), electron(), proton_clamped((4,)))
        u_min, u_max = potential_bounds(grid, roster)
        scale = 1.0 / grid.delta
        assert u_max == pytest.approx(scale * 1.0)
        assert u_min == pytest.approx(-scale * 1.0)

    def test_bounds_scale_with_nuclear_charges(self):
        grid = build_grid(1.0, 2, 1)
        roster = (
            electron(),
            ParticleSpec(mass=3.0, charge=2.0, kind="clamped", clamped_cell=(0,)),
            ParticleSpec(mass=3.0, charge=3.0, kind="clamped", clamped_cell=(3,)),
        )
        u_min, u_max = potential_bounds(grid, roster)
        scale = 1.0 / grid.delta
        assert u_max == pytest.approx(scale * 6.0)
        assert u_min == pytest.approx(-scale * 5.0)

    def test_level_spacing_formula(self):
        grid = build_grid(2.0, 3, 1)
        assert level_spacing(grid) == pytest.approx(grid.delta**2 / (2 * 8.0), rel=1e-15)

    def test_quantized_levels_within_analytic_budget(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(), electron())
        diag = build_coulomb_diagonal(grid, roster, "ee")
        q = quantize_levels(diag, grid)
        u_min, u_max = potential_bounds(grid, roster)
        budget = (u_max - u_min) / q.delta_u + 1
        assert q.level_count <= budget
        assert q.u_min >= u_min - q.delta_u / 2
        assert q.u_max <= u_max + q.delta_u / 2

    def test_quantization_buckets_to_nearest_multiple(self):
        grid = build_grid(1.0, 1, 1)
        du = level_spacing(grid)
        q = quantize_levels(np.array([0.0, 0.4 * du, 0.6 * du, du]), grid)
        assert q.level_count == 2
        assert q.u_min == 0.0
        assert q.u_max == pytest.approx(du)

    @given(n=st.integers(min_value=1, max_value=3), n_e=st.integers(min_value=2, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_level_count_never_exceeds_budget(self, n, n_e):
        grid = build_grid(1.0, n, 1)
        roster = tuple(electron() for _ in range(n_e))
        if grid.n * n_e > 10:
            return
        diag = build_coulomb_diagonal(grid, roster, "ee")
        q = quantize_levels(diag, grid)
        u_min, u_max = potential_bounds(grid, roster)
        assert q.level_count <= (u_max - u_min) / q.delta_u + 1


class TestAntidiagonalSymmetry:
    def test_all_quantum_coulomb_diagonal_is_symmetric(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), electron())
        diag = build_coulomb_diagonal(grid, roster, "ee")
        assert antidiagonal_symmetry_check(diag)

    def test_offcenter_clamped_nucleus_breaks_symmetry(self):
        # A single fixed charge cannot sit at a mirror-invariant cell on an
        # even grid, so the joint diagonal loses the complement symmetry.
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), proton_clamped((1,)))
        diag = build_coulomb_diagonal(grid, roster, "en")
        assert not antidiagonal_symmetry_check(diag)

    def test_mirror_paired_clamped_charges_restore_symmetry(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), proton_clamped((0,)), proton_clamped((3,)))
        diag = build_coulomb_diagonal(grid, roster, "en")
        assert antidiagonal_symmetry_check(diag)

    def test_fold_halves_storage_and_reconstructs(self):
        grid = build_grid(1.0, 2, 1)
        diag = build_coulomb_diagonal(grid, (electron(), electron()), "ee")
        half = antidiagonal_fold(diag)
        assert half.size == diag.size // 2
        assert np.array_equal(np.concatenate([half, half[::-1]]), diag)

    @pytest.mark.parametrize("energies", [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0]])
    def test_fold_rejects_asymmetric_input(self, energies):
        with pytest.raises(ValidationError):
            antidiagonal_fold(np.array(energies))
