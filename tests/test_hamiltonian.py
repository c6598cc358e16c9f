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
    PauliHamiltonian,
    assemble,
    exact_ground_energy,
    layout_qubits,
    metric_prefactor,
    pauli_decompose,
    to_matrix,
    to_text,
)
from bhvqe.lattice import LatticeSpec, momentum_squared
from bhvqe.linalg import (
    HERMITICITY_TOL,
    PAULI_LETTERS,
    PauliTerm,
    hermitian_eigensystem,
    hermiticity_defect,
    pauli_matrix,
)
from pauli_helpers import coefficient, scaled

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
        for t in h.terms:
            prod = t.coefficient
            for q, letter in enumerate(t.string):
                if letter == "X":
                    prod *= signs[q]
            value += prod
        best = min(best, value)
    return best


def reference_decompose(m, prune_tol=1e-12):
    """Oracle: (string, coefficient) pairs from Tr[P m] / 2^n over all 4^n Pauli matrices."""
    dim = m.shape[0]
    terms = []
    for letters in itertools.product(PAULI_LETTERS, repeat=dim.bit_length() - 1):
        string = "".join(letters)
        coefficient = complex(np.einsum("ij,ji->", pauli_matrix(string), m)).real / dim
        if abs(coefficient) > prune_tol:
            terms.append((string, coefficient))
    return terms


def random_hermitian(rng, n_qubits):
    dim = 2**n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


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
    assert {t.string for t in h.terms} == set(CHAIN_COEFFS)
    for string, expected in CHAIN_COEFFS.items():
        assert abs(coefficient(h, string) - expected) < 1e-14, string


def test_chain_non_identity_coefficients_take_three_values():
    h = assemble(None, CHAIN, N4)
    allowed = (PI / 16, PI / 8, 3 * PI / 16)
    for t in h.terms:
        if t.string == "IIII":
            continue
        assert min(abs(t.coefficient - v) for v in allowed) < 1e-14, t.string


def test_chain_physical_scaling_small_mass():
    # prefactor -> 1/2, so every physical coefficient is half the normalized one
    h = assemble(BlackHoleParams(mass=1e-30, radius=1.0), CHAIN, N4)
    for string, expected in CHAIN_COEFFS.items():
        assert abs(coefficient(h, string) - 0.5 * expected) < 1e-14, string


def test_chain_inner_half_scaling():
    h = assemble(None, CHAIN, N4, inner_half=True)
    for string, expected in CHAIN_COEFFS.items():
        assert abs(coefficient(h, string) - 0.5 * expected) < 1e-14, string


def test_disjoint_single_block():
    h = assemble(None, HamiltonianLayout(variant=DISJOINT, dims=1), N4)
    assert h.n_qubits == 2
    expected = {"II": 3 * PI / 16, "IX": PI / 8, "XI": PI / 16, "XX": PI / 8}
    assert {t.string for t in h.terms} == set(expected)
    for string, value in expected.items():
        assert abs(coefficient(h, string) - value) < 1e-14


def test_disjoint_three_blocks():
    h = assemble(None, HamiltonianLayout(variant=DISJOINT, dims=3), N4)
    assert h.n_qubits == 6
    assert abs(coefficient(h, "IIIIII") - 9 * PI / 16) < 1e-14
    assert abs(coefficient(h, "XIIIII") - PI / 16) < 1e-14
    assert abs(coefficient(h, "IIXIII") - PI / 16) < 1e-14  # second block, no overlap
    assert abs(coefficient(h, "XXIIII") - PI / 8) < 1e-14
    assert len(h.terms) == 10  # merged identity + 3 per block


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


def test_to_matrix_single_z():
    h = PauliHamiltonian.from_terms(1, (PauliTerm(1.0, "Z"),))
    np.testing.assert_allclose(to_matrix(h), np.diag([1.0, -1.0]), atol=1e-15)


def test_chain_matrix_real_symmetric():
    m = to_matrix(assemble(None, CHAIN, N4))
    assert m.shape == (16, 16)
    np.testing.assert_allclose(m.imag, np.zeros((16, 16)), atol=1e-15)
    np.testing.assert_allclose(m, m.T.conj(), atol=1e-14)


def test_pauli_decompose_single_x():
    h = pauli_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
    assert len(h.terms) == 1
    assert h.terms[0].string == "X"
    assert abs(h.terms[0].coefficient - 1.0) < 1e-15


def test_pauli_decompose_momentum_squared():
    from bhvqe.lattice import momentum_squared

    h = pauli_decompose(momentum_squared(N4))
    expected = {"II": 3 * PI / 16, "IX": PI / 8, "XI": PI / 16, "XX": PI / 8}
    assert {t.string for t in h.terms} == set(expected)
    for string, value in expected.items():
        assert abs(coefficient(h, string) - value) < 1e-12


@settings(max_examples=12, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_pauli_decompose_matches_reference(n_qubits, seed):
    m = random_hermitian(np.random.default_rng(seed), n_qubits)
    expected = reference_decompose(m)
    h = pauli_decompose(m)
    assert [t.string for t in h.terms] == [s for s, _ in expected]
    for t, (_, coefficient) in zip(h.terms, expected):
        assert abs(t.coefficient - coefficient) < 1e-12, t.string


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_to_matrix_matches_pauli_matrix_sum(n_qubits, seed):
    rng = np.random.default_rng(seed)
    picks = rng.choice(4**n_qubits, size=min(4**n_qubits, int(rng.integers(1, 40))), replace=False)
    strings = sorted(
        "".join(PAULI_LETTERS[(p >> (2 * q)) & 3] for q in range(n_qubits)) for p in picks
    )
    h = PauliHamiltonian.from_terms(n_qubits, tuple(PauliTerm(float(rng.normal()), s) for s in strings))
    expected = sum(t.coefficient * pauli_matrix(t.string) for t in h.terms)
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
        assert [t.string for t in h.terms] == [s for s, _ in expected], n_points
        for t, (_, coefficient) in zip(h.terms, expected):
            assert abs(t.coefficient - coefficient) < 1e-12, (n_points, t.string)


def test_to_matrix_without_terms_is_zero():
    np.testing.assert_array_equal(to_matrix(PauliHamiltonian.from_terms(3, ())), np.zeros((8, 8)))


def test_pauli_decompose_zero_matrix():
    assert pauli_decompose(np.zeros((4, 4), dtype=complex)).terms == ()


def test_pauli_decompose_rejects_bad_inputs():
    with pytest.raises(NotPowerOfTwoError):
        pauli_decompose(np.eye(3))
    with pytest.raises(NotHermitianError):
        pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("n_qubits", [1, 3, 6])
def test_pauli_decompose_drops_anti_hermitian_part_below_gate(n_qubits):
    # the anti-Hermitian part reaches the coefficients only as imaginary parts
    # of at most half the Hermiticity defect, so the real expansion is kept
    rng = np.random.default_rng(n_qubits)
    h = random_hermitian(rng, n_qubits)
    b = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    skew = (b - b.conj().T) / 2
    m = h + skew * (0.99 * HERMITICITY_TOL / np.abs(2 * skew).max())
    assert 0.98 * HERMITICITY_TOL < hermiticity_defect(m) < HERMITICITY_TOL
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
    h = PauliHamiltonian.from_terms(7, (PauliTerm(1.0, "Z" * 7),))
    with pytest.raises(DomainError):
        exact_ground_energy(h)


def test_pauli_hamiltonian_rejects_duplicates():
    with pytest.raises(ValueError):
        PauliHamiltonian.from_terms(2, (PauliTerm(1.0, "XX"), PauliTerm(2.0, "XX")))
    with pytest.raises(ValueError):
        PauliHamiltonian.from_terms(2, (PauliTerm(1.0, "XXX"),))


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
        for t in block.terms:
            s = embed_by_letters(t.string, start, n_qubits)
            coeffs[s] = coeffs.get(s, 0.0) + scale * t.coefficient
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
    h = assemble(params, layout, spec, inner_half=inner_half)
    x, z, coeffs = assemble_by_letters(params, layout, spec, inner_half)
    assert h.x.tolist() == x
    assert h.z.tolist() == z
    assert h.coeffs.tolist() == coeffs


def assert_same_arrays(a, b):
    assert a.n_qubits == b.n_qubits
    for name in ("x", "z", "coeffs"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(ASSEMBLY_SHAPES), params=black_holes, seed=st.integers(0, 2**32 - 1))
def test_from_terms_reproduces_arrays(shape, params, seed):
    layout, spec = shape
    h = assemble(params, layout, spec)
    assert_same_arrays(PauliHamiltonian.from_terms(h.n_qubits, h.terms), h)
    rng = np.random.default_rng(seed)
    m = pauli_decompose(random_hermitian(rng, int(rng.integers(1, 6))))
    assert_same_arrays(PauliHamiltonian.from_terms(m.n_qubits, m.terms), m)


def test_from_terms_merges_into_letter_order():
    terms = (PauliTerm(0.5, "ZI"), PauliTerm(-1.0, "IX"), PauliTerm(1e-13, "XX"), PauliTerm(2, "YI"))
    h = PauliHamiltonian.from_terms(2, terms)
    assert [t.string for t in h.terms] == ["IX", "YI", "ZI"]  # 1e-13 is pruned
    assert h.x.tolist() == [0b01, 0b10, 0b00]
    assert h.z.tolist() == [0b00, 0b10, 0b10]
    assert h.coeffs.tolist() == [-1.0, 2.0, 0.5]


@pytest.mark.parametrize("bad", [1j, 1 + 0j, math.nan, math.inf, -math.inf])
def test_from_terms_rejects_complex_and_non_finite_coefficients(bad):
    with pytest.raises(ValueError):
        PauliHamiltonian.from_terms(2, (PauliTerm(1.0, "XX"), PauliTerm(bad, "ZZ")))


def test_from_terms_qubit_range():
    # x and z share one int64 merge key, so 31 qubits is the widest operator
    wide = PauliHamiltonian.from_terms(31, (PauliTerm(1.5, "Y" * 31),))
    assert wide.x.tolist() == wide.z.tolist() == [2**31 - 1]
    assert wide.terms == (PauliTerm(1.5, "Y" * 31),)
    with pytest.raises(ValueError):
        PauliHamiltonian.from_terms(32, (PauliTerm(1.0, "Z" * 32),))
    with pytest.raises(ValueError):
        PauliHamiltonian.from_terms(0, ())
