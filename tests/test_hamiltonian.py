import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvqe.errors import DomainError, NotHermitianError, NotPowerOfTwoError, UnsupportedLatticeError
from bhvqe.hamiltonian import (
    COEFF_PRUNE_TOL,
    DISJOINT,
    PAPER_CHAIN,
    BlackHoleParams,
    HamiltonianLayout,
    _flip_index,
    _letters,
    _merged,
    _phases,
    assemble,
    energy_scale,
    exact_ground_energy,
    layout_qubits,
    metric_prefactor,
    parity_eigenvalues,
    pauli_decompose,
    popcount_table,
    to_matrix,
    to_text,
)
from bhvqe.lattice import LatticeSpec, momentum_squared
from bhvqe.linalg import HERMITICITY_TOL, as_matrix, hermitian_eigensystem, require_hermitian
from pauli_helpers import (
    LETTERS,
    coefficient,
    from_letters,
    letter_terms,
    masks,
    pauli_decompose_by_last_axis,
    pauli_matrix,
    scaled,
    to_matrix_by_last_axis,
)

PI = math.pi

CHAIN = HamiltonianLayout(variant=PAPER_CHAIN)
N4 = LatticeSpec(4)

# merged chain coefficients at prefactor 1: three overlapping two-qubit blocks
CHAIN_COEFFS = {
    "IIII": 9 * PI / 16,
    "XIII": PI / 16,
    "IXII": 3 * PI / 16,
    "IIXI": 3 * PI / 16,
    "IIIX": PI / 8,
    "XXII": PI / 8,
    "IXXI": PI / 8,
    "IIXX": PI / 8,
}


def brute_force_chain_minimum(h):
    """Independent ground energy: every term is an X-string, so the operator is
    diagonal in the X basis and the minimum is over the 16 sign assignments."""
    best = math.inf
    for signs in itertools.product((1.0, -1.0), repeat=h.n_qubits):
        value = 0.0
        for c, string in letter_terms(h):
            prod = c
            for q, letter in enumerate(string):
                if letter == "X":
                    prod *= signs[q]
            value += prod
        best = min(best, value)
    return best


def reference_decompose(m, prune_tol=1e-12):
    """Oracle: (string, coefficient) pairs from Tr[P m] / 2^n over all 4^n Pauli matrices."""
    dim = m.shape[0]
    terms = []
    for letters in itertools.product(LETTERS, repeat=dim.bit_length() - 1):
        string = "".join(letters)
        coefficient = complex(np.einsum("ij,ji->", pauli_matrix(string), m)).real / dim
        if abs(coefficient) > prune_tol:
            terms.append((string, coefficient))
    return terms


def random_hermitian(rng, n_qubits):
    dim = 2**n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_pauli_sum(rng, n_qubits):
    """1 to 39 distinct strings with normal real coefficients."""
    picks = rng.choice(4**n_qubits, size=min(4**n_qubits, int(rng.integers(1, 40))), replace=False)
    strings = sorted(
        "".join(LETTERS[(p >> (2 * q)) & 3] for q in range(n_qubits)) for p in picks
    )
    return from_letters(n_qubits, [(float(rng.normal()), s) for s in strings])


def plus_minus_state(pattern):
    """Product state over (1,1)/sqrt(2) for '+' and (1,-1)/sqrt(2) for '-'."""
    state = np.array([1.0])
    for ch in pattern:
        sign = 1.0 if ch == "+" else -1.0
        state = np.kron(state, np.array([1.0, sign]) / math.sqrt(2))
    return state


def test_metric_prefactor_small_mass_limit():
    assert abs(metric_prefactor(BlackHoleParams(mass=1e-30, radius=1.0)) - 0.5) < 1e-15


def test_metric_prefactor_large_radius_limit():
    assert abs(metric_prefactor(BlackHoleParams(mass=1.0, radius=1e12)) - 0.5) < 1e-12


def test_metric_prefactor_at_horizon():
    # r = 2GM makes GM/2r = 1/4, so the prefactor is (1.25)^(1/4) / 2
    value = metric_prefactor(BlackHoleParams(mass=1.0, radius=2.0))
    assert abs(value - 0.5 * 1.25**0.25) < 1e-15
    assert abs(value - 0.528685631720282) < 1e-14


def test_metric_prefactor_monotone_in_mass():
    values = [metric_prefactor(BlackHoleParams(mass=m, radius=5.0)) for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_black_hole_params_validation():
    assert BlackHoleParams(mass=3.0, radius=6.0).rho == 0.25
    with pytest.raises(DomainError):
        BlackHoleParams(mass=0.0, radius=1.0)
    with pytest.raises(DomainError):
        BlackHoleParams(mass=-1.0, radius=1.0)
    with pytest.raises(DomainError):
        BlackHoleParams(mass=1.0, radius=0.0)
    for mass, radius in ((1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf), (1e308, 1e-308)):
        with pytest.raises(DomainError):
            BlackHoleParams(mass=mass, radius=radius)


def test_chain_merged_coefficients():
    h = assemble(None, CHAIN, N4)
    assert h.n_qubits == 4
    assert {s for _, s in letter_terms(h)} == set(CHAIN_COEFFS)
    for string, expected in CHAIN_COEFFS.items():
        assert abs(coefficient(h, string) - expected) < 1e-14, string


def test_chain_non_identity_coefficients_take_three_values():
    h = assemble(None, CHAIN, N4)
    allowed = (PI / 16, PI / 8, 3 * PI / 16)
    for c, string in letter_terms(h):
        if string == "IIII":
            continue
        assert min(abs(c - v) for v in allowed) < 1e-14, string


def test_chain_physical_scaling_small_mass():
    # prefactor -> 1/2, so every physical coefficient is half the normalized one
    h = assemble(BlackHoleParams(mass=1e-30, radius=1.0), CHAIN, N4)
    for string, expected in CHAIN_COEFFS.items():
        assert abs(coefficient(h, string) - 0.5 * expected) < 1e-14, string


def test_chain_inner_half_scaling():
    # the point's Hamiltonian is energy_scale times the unit-prefactor operator
    h = assemble(None, CHAIN, N4)
    half = energy_scale(None, inner_half=True)
    for string, expected in CHAIN_COEFFS.items():
        assert abs(half * coefficient(h, string) - 0.5 * expected) < 1e-14, string


def test_disjoint_single_block():
    h = assemble(None, HamiltonianLayout(variant=DISJOINT, dims=1), N4)
    assert h.n_qubits == 2
    expected = {"II": 3 * PI / 16, "IX": PI / 8, "XI": PI / 16, "XX": PI / 8}
    assert {s for _, s in letter_terms(h)} == set(expected)
    for string, value in expected.items():
        assert abs(coefficient(h, string) - value) < 1e-14


def test_disjoint_three_blocks():
    h = assemble(None, HamiltonianLayout(variant=DISJOINT, dims=3), N4)
    assert h.n_qubits == 6
    assert abs(coefficient(h, "IIIIII") - 9 * PI / 16) < 1e-14
    assert abs(coefficient(h, "XIIIII") - PI / 16) < 1e-14
    assert abs(coefficient(h, "IIXIII") - PI / 16) < 1e-14  # second block, no overlap
    assert abs(coefficient(h, "XXIIII") - PI / 8) < 1e-14
    assert len(letter_terms(h)) == 10  # merged identity + 3 per block


def test_layout_qubits_is_the_assembled_width():
    layouts = [CHAIN] + [HamiltonianLayout(variant=DISJOINT, dims=d) for d in (1, 2, 3)]
    for layout in layouts:
        for n_points in (4,) if layout.variant == PAPER_CHAIN else (2, 4):
            spec = LatticeSpec(n_points)
            assert layout_qubits(layout, spec) == assemble(None, layout, spec).n_qubits
    assert layout_qubits(HamiltonianLayout(variant=DISJOINT, dims=3), LatticeSpec(16)) == 12


def test_chain_requires_four_point_lattice():
    with pytest.raises(UnsupportedLatticeError):
        assemble(None, CHAIN, LatticeSpec(8))
    with pytest.raises(UnsupportedLatticeError):
        layout_qubits(CHAIN, LatticeSpec(2))


@pytest.mark.parametrize("variant", [PAPER_CHAIN, DISJOINT])
@pytest.mark.parametrize("dims, error", [
    (2.0, TypeError), (True, TypeError), ("2", TypeError), (0, ValueError), (4, ValueError),
])
def test_layout_requires_integer_dims_in_range(variant, dims, error):
    # a float dims made layout_qubits return 4.0
    with pytest.raises(error):
        HamiltonianLayout(variant=variant, dims=dims)


def test_to_matrix_single_z():
    h = from_letters(1, [(1.0, "Z")])
    np.testing.assert_allclose(to_matrix(h), np.diag([1.0, -1.0]), atol=1e-15)


def test_chain_matrix_real_symmetric():
    m = to_matrix(assemble(None, CHAIN, N4))
    assert m.shape == (16, 16)
    np.testing.assert_allclose(m.imag, np.zeros((16, 16)), atol=1e-15)
    np.testing.assert_allclose(m, m.T.conj(), atol=1e-14)


def test_pauli_decompose_single_x():
    h = pauli_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
    [(c, string)] = letter_terms(h)
    assert string == "X"
    assert abs(c - 1.0) < 1e-15


def test_pauli_decompose_momentum_squared():
    from bhvqe.lattice import momentum_squared

    h = pauli_decompose(momentum_squared(N4))
    expected = {"II": 3 * PI / 16, "IX": PI / 8, "XI": PI / 16, "XX": PI / 8}
    assert {s for _, s in letter_terms(h)} == set(expected)
    for string, value in expected.items():
        assert abs(coefficient(h, string) - value) < 1e-12


@settings(max_examples=12, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_pauli_decompose_matches_reference(n_qubits, seed):
    m = random_hermitian(np.random.default_rng(seed), n_qubits)
    expected = reference_decompose(m)
    h = pauli_decompose(m)
    assert [s for _, s in letter_terms(h)] == [s for s, _ in expected]
    for (c, string), (_, coefficient) in zip(letter_terms(h), expected):
        assert abs(c - coefficient) < 1e-12, string


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_to_matrix_matches_pauli_matrix_sum(n_qubits, seed):
    h = random_pauli_sum(np.random.default_rng(seed), n_qubits)
    expected = sum(c * pauli_matrix(s) for c, s in letter_terms(h))
    np.testing.assert_allclose(to_matrix(h), expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_decompose_round_trip(n_qubits, seed):
    m = random_hermitian(np.random.default_rng(seed), n_qubits)
    np.testing.assert_allclose(to_matrix(pauli_decompose(m)), m, rtol=0, atol=1e-12)


def test_momentum_squared_blocks_match_reference():
    for n_points in (2, 4, 8, 16, 32, 64):
        m = momentum_squared(LatticeSpec(n_points))
        expected = reference_decompose(m)
        h = pauli_decompose(m)
        assert [s for _, s in letter_terms(h)] == [s for s, _ in expected], n_points
        for (c, string), (_, coefficient) in zip(letter_terms(h), expected):
            assert abs(c - coefficient) < 1e-12, (n_points, string)


def test_to_matrix_without_terms_is_zero():
    np.testing.assert_array_equal(to_matrix(from_letters(3, ())), np.zeros((8, 8)))


def test_pauli_decompose_zero_matrix():
    assert letter_terms(pauli_decompose(np.zeros((4, 4), dtype=complex))) == []


def test_pauli_decompose_rejects_bad_inputs():
    with pytest.raises(NotPowerOfTwoError):
        pauli_decompose(np.eye(3))
    with pytest.raises(NotHermitianError):
        pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_pauli_decompose_validates_its_input_once(monkeypatch):
    calls = []
    monkeypatch.setattr("bhvqe.linalg.as_matrix", lambda m: calls.append(m) or as_matrix(m))
    pauli_decompose(np.eye(4))
    assert len(calls) == 1
    # an input that is neither Hermitian nor of a power-of-two size fails the Hermiticity gate
    with pytest.raises(NotHermitianError):
        pauli_decompose(np.triu(np.ones((3, 3))))


@pytest.mark.parametrize("n_qubits", [1, 3, 6])
def test_pauli_decompose_drops_anti_hermitian_part_below_gate(n_qubits):
    # the anti-Hermitian part reaches the coefficients only as imaginary parts
    # of at most half the Hermiticity defect, so the real expansion is kept
    rng = np.random.default_rng(n_qubits)
    h = random_hermitian(rng, n_qubits)
    b = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    skew = (b - b.conj().T) / 2
    m = h + skew * (0.99 * HERMITICITY_TOL / np.abs(2 * skew).max())
    assert 0.98 * HERMITICITY_TOL < np.abs(m - m.conj().T).max() < HERMITICITY_TOL
    np.testing.assert_array_equal(require_hermitian(m), m)  # below the gate: passed as it is
    rebuilt = to_matrix(pauli_decompose(m))
    np.testing.assert_allclose(rebuilt, (m + m.conj().T) / 2, rtol=0, atol=1e-12)


def test_decompose_roundtrip_random_hermitian():
    rng = np.random.default_rng(3)
    for dim in (4, 16):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (a + a.conj().T) / 2
        rebuilt = to_matrix(pauli_decompose(m))
        np.testing.assert_allclose(rebuilt, m, atol=1e-10)


def test_ground_energy_disjoint_is_zero():
    h = assemble(None, HamiltonianLayout(variant=DISJOINT, dims=2), N4)
    assert abs(exact_ground_energy(h)) < 1e-12


def test_ground_energy_chain_dual_route():
    h = assemble(None, CHAIN, N4)
    diagonalized = exact_ground_energy(h)
    enumerated = brute_force_chain_minimum(h)
    assert abs(diagonalized - PI / 8) < 1e-10
    assert abs(enumerated - PI / 8) < 1e-12
    assert abs(diagonalized - enumerated) < 1e-10


def test_ground_energy_closed_form_random_points():
    rng = np.random.default_rng(21)
    for _ in range(3):
        mass = float(rng.uniform(0.1, 10.0))
        radius = float(rng.uniform(2.0 * mass, 20.0 * mass))
        params = BlackHoleParams(mass=mass, radius=radius)
        h = assemble(params, CHAIN, N4)
        expected = (PI / 16) * (1.0 + params.rho) ** 0.25
        assert abs(exact_ground_energy(h) - expected) < 1e-10


def test_ground_energy_scales_linearly():
    h = assemble(None, CHAIN, N4)
    base = exact_ground_energy(h)
    assert abs(exact_ground_energy(scaled(h, 2.5)) - 2.5 * base) < 1e-10


def test_ground_state_is_alternating_product():
    h = assemble(None, CHAIN, N4)
    _, vectors = hermitian_eigensystem(to_matrix(h))
    overlap = abs(np.vdot(plus_minus_state("+-+-"), vectors[:, 0]))
    assert overlap > 1.0 - 1e-9


def test_ground_energy_qubit_budget():
    h = from_letters(7, [(1.0, "Z" * 7)])
    with pytest.raises(DomainError):
        exact_ground_energy(h)


def _assert_settings_cover_each_row_once(h):
    # a setting's bits on a measured qubit never change once set, so each row belongs to the
    # first setting that measures every qubit of the row in the row's own basis
    masks = h.x | h.z
    dim = 2**h.n_qubits
    weights = [np.zeros(dim) for _ in h.settings]
    for row in np.flatnonzero(masks).tolist():
        x, z, mask = int(h.x[row]), int(h.z[row]), int(masks[row])
        owner = next(k for k, s in enumerate(h.settings) if ((x ^ s.x) | (z ^ s.z)) & mask == 0)
        signs = [(-1) ** bin(mask & k).count("1") for k in range(dim)]
        weights[owner] += h.coeffs[row] * np.array(signs, dtype=float)
    for s, expected in zip(h.settings, weights):
        # every setting measures some row, and its weights are the sum over its own rows
        assert expected.any()
        np.testing.assert_allclose(s.weights, expected, rtol=0, atol=1e-12)
    assert h.identity_offset == sum(c for c, s in letter_terms(h) if set(s) == {"I"})


@pytest.mark.parametrize(
    "layout, n_points, count",
    [(CHAIN, 4, 1), (HamiltonianLayout(variant=DISJOINT, dims=1), 8, 2),
     (HamiltonianLayout(variant=DISJOINT, dims=1), 16, 4),
     (HamiltonianLayout(variant=DISJOINT, dims=1), 64, 16),
     (HamiltonianLayout(variant=DISJOINT, dims=2), 8, 2)],
    ids=["chain", "disjoint-N8", "disjoint-N16", "disjoint-N64", "disjoint-2x8"],
)
def test_measurement_settings_of_assembled_hamiltonians(layout, n_points, count):
    h = assemble(None, layout, LatticeSpec(n_points))
    assert len(h.settings) == count
    _assert_settings_cover_each_row_once(h)


@settings(max_examples=60, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_measurement_settings_cover_each_row_once(n_qubits, seed):
    rng = np.random.default_rng(seed)
    strings = {"".join(rng.choice(list("IXYZ"), n_qubits)) for _ in range(int(rng.integers(0, 12)))}
    h = from_letters(n_qubits, [(rng.normal(), s) for s in sorted(strings)])
    _assert_settings_cover_each_row_once(h)


def test_to_text_format():
    h = assemble(None, CHAIN, N4)
    lines = to_text(h).splitlines()
    assert len(lines) == 8
    strings = [line.split()[1] for line in lines]
    assert strings == sorted(strings)
    assert f"{9 * PI / 16:.12g} IIII" in lines


def embed_by_letters(block_string, start, n_qubits):
    """Oracle: a block's Pauli string spliced into n_qubits identities at start."""
    letters = ["I"] * n_qubits
    for offset, letter in enumerate(block_string):
        letters[start + offset] = letter
    return "".join(letters)


def assemble_by_letters(params, layout, spec, inner_half):
    """Oracle: the letter-string assembly, with embedded strings merged in a dict.

    Returns (x, z, coefficient) lists in letter order, masks read off each letter.
    """
    scale = 1.0 if params is None else metric_prefactor(params)
    if inner_half:
        scale *= 0.5
    block = pauli_decompose(momentum_squared(spec))
    if layout.variant == PAPER_CHAIN:
        n_qubits, starts = 4, [0, 1, 2]
    else:
        n_qubits = layout.dims * spec.n_qubits
        starts = [d * spec.n_qubits for d in range(layout.dims)]
    coeffs = {}
    for start in starts:
        for c, string in letter_terms(block):
            s = embed_by_letters(string, start, n_qubits)
            coeffs[s] = coeffs.get(s, 0.0) + scale * c
    kept = sorted((s, c) for s, c in coeffs.items() if abs(c) > COEFF_PRUNE_TOL)
    x = [int("".join("1" if c in "XY" else "0" for c in s), 2) for s, _ in kept]
    z = [int("".join("1" if c in "YZ" else "0" for c in s), 2) for s, _ in kept]
    return x, z, [c for _, c in kept]


# (layout, lattice) pairs up to 6 qubits: the paper chain, and 1 to 3
# disjoint blocks of log2(N) qubits each
ASSEMBLY_SHAPES = [(CHAIN, N4)] + [
    (HamiltonianLayout(variant=DISJOINT, dims=dims), LatticeSpec(2**block_qubits))
    for dims in (1, 2, 3)
    for block_qubits in range(1, 6 // dims + 1)
]
black_holes = st.none() | st.builds(
    BlackHoleParams, mass=st.floats(1e-3, 1e3), radius=st.floats(1e-3, 1e3)
)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(ASSEMBLY_SHAPES), params=black_holes, inner_half=st.booleans())
def test_assemble_matches_letter_oracle_bit_for_bit(shape, params, inner_half):
    layout, spec = shape
    h = assemble(params, layout, spec)
    # inner_half halves energy_scale, the factor on the assembled operator; halving is exact
    half = energy_scale(params, inner_half) / energy_scale(params)
    x, z, coeffs = assemble_by_letters(params, layout, spec, inner_half)
    assert h.x.tolist() == x
    assert h.z.tolist() == z
    assert (half * h.coeffs).tolist() == coeffs


def test_merged_rows_sort_into_letter_order():
    # rows ZI, IX, XX (below the prune bound), YI and IX again, as masks
    x = np.array([0b00, 0b01, 0b11, 0b10, 0b01])
    z = np.array([0b10, 0b00, 0b00, 0b10, 0b00])
    h = _merged(2, x, z, np.array([0.5, -1.5, 1e-13, 2.0, 0.5]))
    assert [s for _, s in letter_terms(h)] == ["IX", "YI", "ZI"]
    assert h.x.tolist() == [0b01, 0b10, 0b00]
    assert h.z.tolist() == [0b00, 0b10, 0b10]
    assert h.coeffs.tolist() == [-1.0, 2.0, 0.5]


@settings(max_examples=80, deadline=None)
@given(n_qubits=st.integers(1, 6), data=st.data())
def test_merged_integer_key_orders_rows_as_their_letters(n_qubits, data):
    dim = 2**n_qubits
    keys = data.draw(st.sets(st.integers(0, dim * dim - 1), max_size=40))
    # all-I and all-Y rows: the smallest and the largest letter-rank key
    keys = sorted(keys | {0, dim * dim - 1})
    x, z = np.array(keys) // dim, np.array(keys) % dim
    letters = _letters(x, z, n_qubits)
    h = _merged(n_qubits, x, z, np.ones(len(keys)))
    assert _letters(h.x, h.z, n_qubits) == sorted(letters)
    assert sorted(zip(h.x.tolist(), h.z.tolist())) == sorted(zip(x.tolist(), z.tolist()))


@pytest.mark.parametrize("shape", ASSEMBLY_SHAPES, ids=lambda shape: repr(shape))
def test_assembled_rows_follow_sorted_to_text_letters(shape):
    h = assemble(None, *shape)
    letters = [line.split()[1] for line in to_text(h).splitlines()]
    assert letters == sorted(letters) and len(set(letters)) == len(letters)


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
def test_dimension_tables_are_built_once_and_read_only(dim):
    tables = [popcount_table, parity_eigenvalues, _phases, lambda d: _flip_index(d)[0],
              lambda d: _flip_index(d)[1]]
    for table in tables:
        first = table(dim)
        assert table(dim) is first
        assert first.shape == (dim, dim)
        with pytest.raises(ValueError):
            first[0, 0] = 1
    # each to_matrix result is the caller's own array
    h = pauli_decompose(random_hermitian(np.random.default_rng(dim), dim.bit_length() - 1))
    for setting in h.settings:  # every reader of a setting shares its rotation
        with pytest.raises(ValueError):
            setting.rotation[0, 0] = 1
    expected = to_matrix(h)
    changed = to_matrix(h)
    changed[:] = 7.0
    np.testing.assert_array_equal(to_matrix(h), expected)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(ASSEMBLY_SHAPES),
    params=black_holes,
    n_qubits=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_to_text_parses_back_through_letter_oracle(shape, params, n_qubits, seed):
    layout, spec = shape
    m = pauli_decompose(random_hermitian(np.random.default_rng(seed), n_qubits))
    for h in (assemble(params, layout, spec), m):
        rows = [line.split() for line in to_text(h).splitlines()]
        assert [masks(string) for _, string in rows] == list(zip(h.x.tolist(), h.z.tolist()))
        assert [float(c) for c, _ in rows] == [float(f"{c:.12g}") for c in h.coeffs.tolist()]


# eigvalsh and eigh take different LAPACK routes, so their lowest eigenvalues
# agree to rounding: within this bound for operators of norm up to ~1
EIGENVALUE_ROUTE_TOL = 1e-13


@pytest.mark.parametrize("shape", ASSEMBLY_SHAPES, ids=lambda shape: repr(shape))
def test_ground_energy_matches_lowest_eigh_eigenvalue(shape):
    h = assemble(None, *shape)
    lowest = np.linalg.eigh(to_matrix(h))[0][0]
    assert abs(exact_ground_energy(h) - lowest) <= EIGENVALUE_ROUTE_TOL


def test_chain_ground_energy_is_pi_over_8_to_the_last_bits():
    assert abs(exact_ground_energy(assemble(None, CHAIN, N4)) - PI / 8) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_ground_energy_of_random_pauli_sums_matches_eigh(n_qubits, seed):
    h = random_pauli_sum(np.random.default_rng(seed), n_qubits)
    lowest = np.linalg.eigh(to_matrix(h))[0][0]
    # the rounding of both routes grows with the operator norm, at most sum |c|
    bound = EIGENVALUE_ROUTE_TOL * max(1.0, float(np.abs(h.coeffs).sum()))
    assert abs(exact_ground_energy(h) - lowest) <= bound


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes: the sign of every zero real and imaginary part included."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_operator(h, expected):
    assert h.n_qubits == expected.n_qubits
    assert h.x.tolist() == expected.x.tolist() and h.z.tolist() == expected.z.tolist()
    assert_same_bits(h.coeffs, expected.coeffs)


@settings(max_examples=80, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_transforms_match_last_axis_route_bit_for_bit(n_qubits, seed):
    rng = np.random.default_rng(seed)
    # the random sums draw from all 4^n strings, odd-Y ones included
    h = random_pauli_sum(rng, n_qubits)
    assert_same_bits(to_matrix(h), to_matrix_by_last_axis(h))
    m = random_hermitian(rng, n_qubits)
    assert_same_operator(pauli_decompose(m), pauli_decompose_by_last_axis(m))


@pytest.mark.parametrize("shape", ASSEMBLY_SHAPES, ids=lambda shape: repr(shape))
def test_assembled_transforms_match_last_axis_route_bit_for_bit(shape):
    h = assemble(None, *shape)
    m = to_matrix(h)
    assert_same_bits(m, to_matrix_by_last_axis(h))
    assert_same_operator(pauli_decompose(m), pauli_decompose_by_last_axis(m))


def spy_eigensolver_dtypes(monkeypatch):
    """The dtype of every matrix np.linalg.eigvalsh receives, in call order."""
    dtypes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: dtypes.append(m.dtype) or eigvalsh(m))
    return dtypes


@pytest.mark.parametrize("shape", ASSEMBLY_SHAPES, ids=lambda shape: repr(shape))
def test_assembled_operators_take_the_real_symmetric_solver(shape, monkeypatch):
    dtypes = spy_eigensolver_dtypes(monkeypatch)
    exact_ground_energy(assemble(None, *shape))
    assert dtypes == [np.float64]


@pytest.mark.parametrize(
    "n_qubits, terms, lowest",
    [(1, [(1.0, "Y")], -1.0), (2, [(0.5, "XY")], -0.5), (2, [(1.0, "XX"), (0.25, "YZ")], -1.25)],
)
def test_odd_y_operators_take_the_complex_solver(n_qubits, terms, lowest, monkeypatch):
    dtypes = spy_eigensolver_dtypes(monkeypatch)
    energy = exact_ground_energy(from_letters(n_qubits, terms))
    assert dtypes == [np.complex128]
    assert abs(energy - lowest) <= EIGENVALUE_ROUTE_TOL
