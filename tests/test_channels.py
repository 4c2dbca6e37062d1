"""Tests for channel construction, combination, and parsing."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from chanapprox import (
    Channel,
    apply_channel,
    channels_close,
    choi,
    compose,
    covariant,
    damping,
    identity,
    kron,
    mix,
    pauli_channel,
    pauli_unitaries,
    parse_channel_spec,
    partial_trace,
    qubit_unitary_matrix,
    tensor,
    unitary_channel,
    unitary_qubit,
)
from chanapprox import channels
from chanapprox.channels import PAULI, prob_vector
from chanapprox.errors import (
    DimMismatchError,
    KrausError,
    NotUnitaryError,
    RangeError,
    SimplexError,
    SpecParseError,
)

import properties
import helpers


# --- Channel construction ---------------------------------------------


def test_channel_rejects_empty_kraus() -> None:
    with pytest.raises(KrausError):
        Channel(())


def test_channel_rejects_non_square_kraus() -> None:
    with pytest.raises(KrausError):
        Channel((np.zeros((2, 3)),))
    # a 0 x 0 operator is square but acts on no space
    with pytest.raises(KrausError):
        Channel((np.zeros((0, 0)),))
    with pytest.raises(KrausError):
        identity(0)


def test_channel_rejects_mixed_dims() -> None:
    with pytest.raises(KrausError):
        Channel((np.eye(2), np.eye(3)))


def test_channel_rejects_incomplete_kraus() -> None:
    with pytest.raises(KrausError):
        Channel((0.5 * np.eye(2),))
    for bad in (np.nan, np.inf):
        with pytest.raises(KrausError):
            Channel((np.diag([1.0, bad]),))


def test_channel_dim_and_call() -> None:
    ch = identity(3)
    assert ch.dim == 3
    rho = helpers.random_density(3, helpers.rng(20))
    npt.assert_allclose(ch(rho), rho, atol=1e-14)


def test_apply_channel_rejects_dim_mismatch() -> None:
    with pytest.raises(DimMismatchError):
        apply_channel(identity(2), np.eye(3))


def test_apply_channel_rejects_non_finite_entries() -> None:
    for bad in (np.nan, np.inf):
        with pytest.raises(RangeError, match="NaN or infinite"):
            apply_channel(damping(0.5, 0.5), np.diag([1.0, bad]))


# --- Choi matrices ----------------------------------------------------


def test_choi_identity_explicit() -> None:
    r = choi(identity(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    npt.assert_allclose(r, expected, atol=1e-14)
    npt.assert_allclose(np.trace(r), 2.0)
    assert np.linalg.matrix_rank(r) == 1


def test_choi_output_factor_ordering() -> None:
    # gamma = 1 amplitude damping sends everything to |0><0|; with the map
    # acting on the first tensor factor its Choi matrix is diag(1, 1, 0, 0)
    r = choi(damping(1.0, 1.0))
    npt.assert_allclose(r, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    # tracing out the output factor leaves the identity (trace preservation)
    npt.assert_allclose(partial_trace(r, (2, 2), 1), np.eye(2), atol=1e-12)


def test_choi_is_cached_and_readonly() -> None:
    ch = identity(2)
    assert ch.choi is ch.choi
    with pytest.raises((ValueError, RuntimeError)):
        ch.choi[0, 0] = 5.0


# --- stacked families and Choi-difference requests ----------------------


def _difference_cases():
    """(request, first channel, member channels) for the default fig1-fig4
    grids and the vertex cases: gamma = 0, q in {0, 1}, p in {0, 1} and a
    vertex Pauli member, whose zero operators the constructors drop."""
    from chanapprox import approx

    endpoints = approx._damping_endpoints()
    paulis = pauli_unitaries()
    cases = []
    for x in np.linspace(0.0, 2.0, 201).tolist():
        p = approx.covariance_distance_x(x)[1]
        alpha = float(np.arcsin(np.clip(x / 2.0, -1.0, 1.0)))
        request = channels._ChoiDifferences(("unitary", (alpha, 0.0, 0.0)), [("covariant", (p,))])
        cases.append((request, unitary_qubit(alpha, 0.0, 0.0), [covariant(p)]))
    grid = np.linspace(0.0, np.pi / 2.0, 41).tolist()
    for alpha in grid:
        for beta in grid:
            angles = (alpha, beta, np.pi / 8.0)
            request = channels._ChoiDifferences(("unitary", angles), paulis)
            cases.append((request, unitary_qubit(*angles), list(paulis)))
    square = np.linspace(0.0, 1.0, 33).tolist()
    pairs = [(q, g) for q in square for g in square]
    pairs += [(0.7, g) for g in np.linspace(0.0, 1.0, 101).tolist()]
    for q, gamma in pairs:
        request = channels._ChoiDifferences(("damping", (q, gamma)), endpoints)
        cases.append((request, damping(q, gamma), list(endpoints)))
    vertex = pauli_channel([0.0, 0.0, 1.0, 0.0])
    for q, gamma, p in ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.5, 0.0), (0.0, 1.0, 1.0)):
        request = channels._ChoiDifferences(("damping", (q, gamma)), [("covariant", (p,)), vertex])
        cases.append((request, damping(q, gamma), [covariant(p), vertex]))
    return cases


def _choi_by_operator(ch: Channel) -> np.ndarray:
    """The Choi matrix as a loop over the Kraus operators, each outer
    product added to a zero matrix: the reference of the stacked build."""
    d = ch.dim
    r = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        v = k.reshape(-1)
        r += np.outer(v, v.conj())
    return r


def test_stacked_choi_differences_match_the_scalar_constructors_bit_for_bit() -> None:
    """A window's stacked build gives every Choi difference the bits of
    choi(a) - choi(b) of the channels that the scalar constructors build,
    whose Choi matrices have the bits of the loop over their operators, and
    hands back the first channel's Kraus operators: its family's stack,
    whose nonzero operators are the scalar constructor's."""
    cases = _difference_cases()
    for _, first, members in cases:
        for ch in (first, *members):
            assert choi(ch).tobytes() == _choi_by_operator(ch).tobytes()
    groups = {}
    for case in cases:
        groups.setdefault(case[0].shape_key(), []).append(case)
    assert sorted(len(group) for group in groups.values()) == [4, 201, 1089 + 101, 1681]
    for group in groups.values():
        answers = channels._ChoiDifferences.answer([request for request, _, _ in group])
        for (_, first, members), (deltas, kraus) in zip(group, answers):
            expected = np.stack([choi(first) - choi(ch) for ch in members])
            assert np.array_equal(deltas, expected)
            assert deltas.tobytes() == expected.tobytes()
            assert [k.tobytes() for k in kraus if k.any()] == [k.tobytes() for k in first.kraus]
    # a request answered alone has the bits it has in its window
    request, first, members = cases[-1]
    ((deltas, _),) = channels._ChoiDifferences.answer([request])
    assert deltas.tobytes() == np.stack([choi(first) - choi(ch) for ch in members]).tobytes()


def test_stacked_builders_check_their_parameters_with_the_scalar_messages() -> None:
    """A NaN, infinite or out-of-range parameter in a stacked build raises
    the RangeError that its scalar constructor raises, for the first bad
    parameter of the stack; values within the 1e-12 slop are clamped."""
    nan, inf = float("nan"), float("inf")
    cases = [
        ("damping", (0.5, nan), lambda: damping(0.5, nan)),
        ("damping", (1.5, 0.2), lambda: damping(1.5, 0.2)),
        ("damping", (-inf, 0.2), lambda: damping(-inf, 0.2)),
        ("covariant", (-0.1,), lambda: covariant(-0.1)),
        ("covariant", (nan,), lambda: covariant(nan)),
        ("unitary", (0.3, 7.0, 0.0), lambda: unitary_qubit(0.3, 7.0, 0.0)),
        ("unitary", (2.0, 0.0, 0.0), lambda: unitary_qubit(2.0, 0.0, 0.0)),
        ("unitary", (0.3, 0.0, inf), lambda: unitary_qubit(0.3, 0.0, inf)),
    ]
    goods = {"damping": (0.5, 0.5), "covariant": (0.3,), "unitary": (0.3, 0.2, 0.1)}
    for family, bad, scalar in cases:
        with pytest.raises(RangeError) as expected:
            scalar()
        good = goods[family]
        with pytest.raises(RangeError) as stacked:
            channels._family_kraus(family, [good, bad, good])
        assert str(stacked.value) == str(expected.value)
        request = channels._ChoiDifferences((family, bad), [identity(2)])
        with pytest.raises(RangeError) as alone:
            channels._ChoiDifferences.answer([request])
        assert str(alone.value) == str(expected.value)
    # the first bad parameter of the stack is named
    with pytest.raises(RangeError, match=r"q=1\.5 outside"):
        channels._family_kraus("damping", [(0.5, 0.5), (1.5, 2.0), (0.5, nan)])
    clamped = channels._family_kraus("damping", [(1.0 + 5e-13, -5e-13)])
    assert clamped.tobytes() == channels._family_kraus("damping", [(1.0, 0.0)]).tobytes()


# --- covariant channel ------------------------------------------------


def test_covariant_zero_is_identity() -> None:
    assert channels_close(covariant(0.0), identity(2))


def test_covariant_three_quarters_depolarizes() -> None:
    ch = covariant(0.75)
    gen = helpers.rng(21)
    for _ in range(5):
        rho = helpers.random_density(2, gen)
        npt.assert_allclose(ch(rho), np.eye(2) / 2, atol=1e-12)
    npt.assert_allclose(ch.choi, np.eye(4) / 2, atol=1e-12)


def test_covariant_equals_pauli_mixture() -> None:
    p = 0.3
    assert channels_close(
        covariant(p), pauli_channel([1 - p, p / 3, p / 3, p / 3])
    )


def test_pauli_twirl_identity() -> None:
    # summing sigma_i rho sigma_i over all four Paulis gives 2 Tr(rho) I
    rho = helpers.random_density(2, helpers.rng(22))
    total = sum(s @ rho @ s.conj().T for s in PAULI)
    npt.assert_allclose(total, 2.0 * np.eye(2), atol=1e-12)


def test_covariant_rejects_out_of_range() -> None:
    with pytest.raises(RangeError):
        covariant(-0.1)
    with pytest.raises(RangeError):
        covariant(1.1)
    with pytest.raises(RangeError):
        covariant(0.5, d=1)
    # d must be an integer, as in a channel spec
    for bad_d in (2.5, 2.0, True):
        with pytest.raises(RangeError):
            covariant(0.3, bad_d)


def test_covariant_commutes_with_unitaries() -> None:
    properties.check_covariant_commutes_with_unitaries()


# --- Pauli channels ---------------------------------------------------


def test_pauli_channel_weights_on_bell_diagonal() -> None:
    properties.check_pauli_choi_bell_diagonal()


def test_vertex_pauli_channel_is_its_unitary_channel() -> None:
    # a zero weight adds no Kraus operator, built by pauli_channel or
    # directly, and the Choi matrix keeps its bits
    ch = pauli_channel([0.0, 0.0, 0.0, 1.0])
    four = Channel(tuple(np.sqrt(w) * s for w, s in zip([0.0, 0.0, 0.0, 1.0], PAULI)))
    for built in (ch, four):
        assert len(built.kraus) == 1
        assert built.kraus[0].tobytes() == PAULI[3].tobytes()
        assert choi(built).tobytes() == choi(unitary_channel(PAULI[3])).tobytes()


def test_pauli_channel_rejects_bad_weights() -> None:
    with pytest.raises(SimplexError):
        pauli_channel([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(SimplexError):
        pauli_channel([0.5, 0.1, 0.1, 0.1])
    for bad in ([np.nan, 0, 0, 1], [np.inf, 0, 0, 1], [-np.inf, 0, 0, 1]):
        with pytest.raises(SimplexError):
            pauli_channel(bad)
    with pytest.raises(SimplexError):
        prob_vector([np.nan, 1.0])
    with pytest.raises(SimplexError):
        pauli_channel([0.5, 0.3, 0.2])
    with pytest.raises(SimplexError):
        prob_vector([])
    with pytest.raises(SimplexError):
        prob_vector([[0.5, 0.5]])


def test_pauli_unitaries_are_the_paulis() -> None:
    chans = pauli_unitaries()
    assert len(chans) == 4
    for ch, sigma in zip(chans, PAULI):
        assert channels_close(ch, unitary_channel(sigma))


def test_prob_vector_clamps_tiny_negatives() -> None:
    p = prob_vector([1.0 + 5e-13, -5e-13, 0.0, 0.0])
    assert np.all(p >= 0.0)
    npt.assert_allclose(np.sum(p), 1.0, atol=1e-12)


# --- damping channel --------------------------------------------------


def test_damping_zero_rate_is_identity() -> None:
    assert channels_close(damping(0.3, 0.0), identity(2))


def test_built_channels_carry_no_zero_kraus_operator() -> None:
    # damping's C is zero at gamma = 0 whatever its weight; the Choi bits are
    # those of the full Kraus list
    for ch, count in (
        (damping(1.0, 0.0), 1),
        (damping(0.0, 0.0), 1),
        (damping(0.3, 0.0), 2),
        (covariant(0.0), 1),
        (covariant(0.0, 3), 1),
        (mix([damping(1.0, 0.0), identity(2)], [0.5, 0.5]), 2),
    ):
        assert len(ch.kraus) == count
        assert all(k.any() for k in ch.kraus)
    # a Channel built directly drops its zero operators too (A = B = I and
    # C = 0 at gamma = 0), wherever they stand
    a, c = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    full = Channel((np.sqrt(0.3) * a, np.sqrt(0.3) * c, np.sqrt(0.7) * a, np.sqrt(0.7) * c))
    assert [k.tobytes() for k in full.kraus] == [k.tobytes() for k in damping(0.3, 0.0).kraus]
    assert choi(damping(0.3, 0.0)).tobytes() == choi(full).tobytes()
    leading = Channel((c, a))
    assert len(leading.kraus) == 1 and choi(leading).tobytes() == choi(identity(2)).tobytes()
    # a list with no nonzero operator is no channel
    with pytest.raises(KrausError):
        Channel((c, c))
    with pytest.raises(NotUnitaryError):
        unitary_channel(c)


def test_damping_q_one_is_amplitude_damping() -> None:
    gamma = 0.37
    k0 = np.diag([1.0, np.sqrt(1 - gamma)])
    k1 = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert channels_close(damping(1.0, gamma), Channel((k0, k1)))


def test_damping_q_zero_is_inverse_decay() -> None:
    gamma = 0.37
    b = np.diag([np.sqrt(1 - gamma), 1.0])
    c_up = np.sqrt(gamma) * np.array([[0.0, 0.0], [1.0, 0.0]])
    assert channels_close(damping(0.0, gamma), Channel((b, c_up)))


def test_damping_completeness() -> None:
    gen = helpers.rng(23)
    for _ in range(5):
        q, gamma = gen.uniform(0, 1, size=2)
        total = sum(k.conj().T @ k for k in damping(q, gamma).kraus)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-12


def test_damping_rejects_out_of_range() -> None:
    with pytest.raises(RangeError):
        damping(1.5, 0.5)
    with pytest.raises(RangeError):
        damping(0.5, -0.1)


def test_damping_phase_covariance() -> None:
    properties.check_damping_phase_covariance()


def test_bit_flip_conjugation_swaps_damping_direction() -> None:
    sx = unitary_channel(PAULI[1])
    for q, gamma in ((0.2, 0.6), (0.8, 0.25), (0.5, 1.0)):
        conj = compose(sx, compose(damping(q, gamma), sx))
        assert channels_close(conj, damping(1 - q, gamma))


# --- qubit unitaries --------------------------------------------------


def test_qubit_unitary_matrix_swap_case() -> None:
    u = qubit_unitary_matrix(np.pi / 2, 0.0, 0.0)
    npt.assert_allclose(u, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)


def test_qubit_unitary_matrix_phase_case() -> None:
    u = qubit_unitary_matrix(0.0, np.pi / 6, 0.0)
    npt.assert_allclose(
        u, np.diag([np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6)]), atol=1e-12
    )


def test_qubit_unitary_matrix_is_unitary() -> None:
    gen = helpers.rng(24)
    for _ in range(10):
        a = gen.uniform(0, np.pi / 2)
        b, d = gen.uniform(0, 2 * np.pi, size=2)
        u = qubit_unitary_matrix(a, b, d)
        npt.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_qubit_unitary_matrix_range_checks() -> None:
    with pytest.raises(RangeError):
        qubit_unitary_matrix(-0.1, 0.0, 0.0)
    with pytest.raises(RangeError):
        qubit_unitary_matrix(np.pi / 2 + 0.1, 0.0, 0.0)
    with pytest.raises(RangeError):
        qubit_unitary_matrix(0.0, 7.0, 0.0)
    with pytest.raises(RangeError):
        qubit_unitary_matrix(0.0, 0.0, -0.5)


def test_unitary_channel_rejects_non_unitary() -> None:
    """unitary_channel accepts exactly the U that Channel((U,)) accepts, by
    Channel's rule ||U^dag U - I||_F <= 1e-9 max(1, d), and where Channel
    raises KrausError it raises NotUnitaryError with the same message."""
    rejected = [np.eye(2, 3), np.zeros((0, 0)), np.full((2, 2), np.nan), np.diag([1.0, 0.5])]
    for d in (1, 2, 4):
        # U = sqrt(1 + s) I has ||U^dag U - I||_F = s sqrt(d)
        bound = 1e-9 * max(1, d) / np.sqrt(d)
        inside, outside = (np.sqrt(1.0 + f * bound) * np.eye(d) for f in (0.9, 1.1))
        assert np.array_equal(unitary_channel(inside).choi, Channel((inside,)).choi)
        rejected.append(outside)
    for u in rejected:
        with pytest.raises(KrausError) as kraus_error:
            Channel((u,))
        with pytest.raises(NotUnitaryError) as unitary_error:
            unitary_channel(u)
        assert str(unitary_error.value) == str(kraus_error.value)


def test_unitary_qubit_matches_matrix() -> None:
    ch = unitary_qubit(0.3, 1.1, 2.0)
    assert channels_close(
        ch, unitary_channel(qubit_unitary_matrix(0.3, 1.1, 2.0))
    )


# --- mix, tensor, compose ---------------------------------------------


def test_mix_of_pauli_unitaries_is_pauli_channel() -> None:
    p = [0.4, 0.3, 0.2, 0.1]
    assert channels_close(mix(pauli_unitaries(), p), pauli_channel(p))


def test_mix_skips_zero_weights() -> None:
    ch = mix(pauli_unitaries(), [1.0, 0.0, 0.0, 0.0])
    assert len(ch.kraus) == 1
    assert channels_close(ch, identity(2))


def test_mix_rejects_bad_weights() -> None:
    with pytest.raises(SimplexError):
        mix(pauli_unitaries(), [0.5, 0.5, 0.5, -0.5])
    for bad in ([np.nan, 1, 0, 0], [np.inf, 1, 0, 0]):
        with pytest.raises(SimplexError):
            mix(pauli_unitaries(), bad)
    with pytest.raises(SimplexError):
        mix(pauli_unitaries(), [0.5, 0.5])


def test_mix_rejects_dim_mismatch() -> None:
    with pytest.raises(DimMismatchError):
        mix([identity(2), identity(3)], [0.5, 0.5])
    with pytest.raises(DimMismatchError):
        mix([], [])


def test_tensor_of_phase_unitaries() -> None:
    u = unitary_qubit(0.0, np.pi / 6, 0.0)
    t = tensor(u, u)
    assert len(t.kraus) == 1
    npt.assert_allclose(
        t.kraus[0],
        np.diag([np.exp(1j * np.pi / 3), 1.0, 1.0, np.exp(-1j * np.pi / 3)]),
        atol=1e-12,
    )


def test_tensor_kraus_operators_are_the_kronecker_products_bit_for_bit() -> None:
    """One broadcast product forms every kron(K_a, K_b), in the order of a
    loop over a's operators, then b's, with np.kron's bits; so the Choi
    matrix has them too."""
    gen = helpers.rng(27)
    pairs = [
        (helpers.random_channel(2, 2, gen), helpers.random_channel(2, 3, gen)),
        (damping(0.8, 0.7), covariant(0.2)),
        (unitary_qubit(0.3, 0.5, 0.1), helpers.random_channel(2, 4, gen)),
    ]
    for a, b in pairs:
        t = tensor(a, b)
        expected = [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]
        assert len(t.kraus) == len(expected)
        for k, e in zip(t.kraus, expected):
            assert k.dtype == np.complex128 and k.tobytes() == e.tobytes()
        assert t.choi.tobytes() == Channel(tuple(expected)).choi.tobytes()


def test_tensor_choi_permutation_oracle() -> None:
    gen = helpers.rng(25)
    a = helpers.random_channel(2, 2, gen)
    b = helpers.random_channel(2, 3, gen)
    # interleave the (out, out, ref, ref) factors of the plain Kronecker
    # product into the (out12, ref12) ordering used by choi()
    expected = (
        np.kron(a.choi, b.choi)
        .reshape([2] * 8)
        .transpose(0, 2, 1, 3, 4, 6, 5, 7)
        .reshape(16, 16)
    )
    npt.assert_allclose(tensor(a, b).choi, expected, atol=1e-12)


def test_tensor_acts_like_product() -> None:
    gen = helpers.rng(26)
    a = helpers.random_channel(2, 2, gen)
    b = helpers.random_channel(2, 2, gen)
    rho = helpers.random_density(2, gen)
    sigma = helpers.random_density(2, gen)
    npt.assert_allclose(
        tensor(a, b)(kron(rho, sigma)), kron(a(rho), b(sigma)), atol=1e-12
    )


def test_compose_identity_is_neutral() -> None:
    gen = helpers.rng(27)
    ch = helpers.random_channel(2, 2, gen)
    assert channels_close(compose(identity(2), ch), ch)
    assert channels_close(compose(ch, identity(2)), ch)


def test_compose_applies_in_order() -> None:
    gen = helpers.rng(28)
    a = helpers.random_channel(2, 2, gen)
    b = helpers.random_channel(2, 2, gen)
    rho = helpers.random_density(2, gen)
    npt.assert_allclose(compose(a, b)(rho), a(b(rho)), atol=1e-12)


def test_compose_rejects_dim_mismatch() -> None:
    with pytest.raises(DimMismatchError):
        compose(identity(2), identity(3))


# --- channels_close ---------------------------------------------------


def test_channels_close_tolerance() -> None:
    a = pauli_channel([1.0, 0.0, 0.0, 0.0])
    b = pauli_channel([1.0 - 1e-6, 1e-6, 0.0, 0.0])
    assert channels_close(a, a)
    assert not channels_close(a, b)
    assert channels_close(a, b, tol=1e-3)
    assert not channels_close(identity(2), identity(3), tol=np.inf)


def test_channels_close_rejects_a_nan_or_negative_tol() -> None:
    for tol in (np.nan, -1e-8):
        with pytest.raises(RangeError, match="tol"):
            channels_close(identity(2), identity(2), tol=tol)


# --- channel-spec parsing ---------------------------------------------


def test_parse_unitary_spec() -> None:
    ch = parse_channel_spec({"kind": "unitary", "alpha": 0.3, "beta": 1.1, "delta": 2.0})
    assert channels_close(ch, unitary_qubit(0.3, 1.1, 2.0))


def test_parse_pauli_spec_from_json_string() -> None:
    ch = parse_channel_spec('{"kind": "pauli", "p": [0.4, 0.3, 0.2, 0.1]}')
    assert channels_close(ch, pauli_channel([0.4, 0.3, 0.2, 0.1]))


def test_parse_covariant_spec() -> None:
    ch = parse_channel_spec({"kind": "covariant", "p": 0.75})
    assert channels_close(ch, covariant(0.75))


def test_parse_damping_spec() -> None:
    ch = parse_channel_spec({"kind": "damping", "q": 0.7, "gamma": 0.5})
    assert channels_close(ch, damping(0.7, 0.5))


def test_parse_kraus_spec() -> None:
    mats = [
        [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    ]
    ch = parse_channel_spec({"kind": "kraus", "dim": 2, "matrices": mats})
    assert channels_close(ch, unitary_channel(PAULI[1]))


def test_parse_tensor_spec() -> None:
    sub = {"kind": "pauli", "p": [0.9, 0.1, 0.0, 0.0]}
    ch = parse_channel_spec({"kind": "tensor", "factors": [sub, sub]})
    inner = pauli_channel([0.9, 0.1, 0.0, 0.0])
    assert channels_close(ch, tensor(inner, inner))


def test_parse_mix_spec() -> None:
    ch = parse_channel_spec(
        {
            "kind": "mix",
            "channels": [
                {"kind": "pauli", "p": [1, 0, 0, 0]},
                {"kind": "pauli", "p": [0, 0, 0, 1]},
            ],
            "weights": [0.25, 0.75],
        }
    )
    assert channels_close(ch, pauli_channel([0.25, 0.0, 0.0, 0.75]))


def test_parse_rejects_malformed_specs(monkeypatch) -> None:
    with pytest.raises(SpecParseError):
        parse_channel_spec("not json at all {")
    with pytest.raises(SpecParseError):
        parse_channel_spec('["kind", "pauli"]')
    with pytest.raises(SpecParseError):
        parse_channel_spec({"kind": "warp", "factor": 9})
    with pytest.raises(SpecParseError):
        parse_channel_spec({"kind": "unitary", "alpha": 0.3})
    with pytest.raises(SpecParseError):
        parse_channel_spec({"kind": "pauli", "p": [2.0, 0.0, 0.0, 0.0]})
    with pytest.raises(SpecParseError):
        parse_channel_spec({"kind": "kraus", "dim": 2, "matrices": [[[1, 0], [0, 1]]]})
    with pytest.raises(SpecParseError):
        parse_channel_spec({"kind": "tensor", "factors": [{"kind": "covariant", "p": 0.1}]})
    # dimensions are integers in 2..4, named by their field
    for d in (2.7, 2.0, True, "abc", None, 1, 5):
        with pytest.raises(SpecParseError, match="'d'"):
            parse_channel_spec({"kind": "covariant", "p": 0.5, "d": d})
    for d in (2.0, "2", 1, 5):
        with pytest.raises(SpecParseError, match="'dim'"):
            parse_channel_spec({"kind": "kraus", "dim": d, "matrices": []})
    # a tensor above dimension 4 is rejected before its product is built
    built = []
    monkeypatch.setattr(
        channels, "tensor", lambda a, b: built.append((a.dim, b.dim)) or tensor(a, b)
    )
    pair = {"kind": "tensor", "factors": [{"kind": "damping", "q": 1, "gamma": 0.5}] * 2}
    for factors in ([pair, {"kind": "damping", "q": 1, "gamma": 0.5}], [pair, pair]):
        with pytest.raises(SpecParseError, match="'factors'"):
            parse_channel_spec({"kind": "tensor", "factors": factors})
    assert built == [(2, 2)] * 3
    # NumPy's conversion errors (a string where a number goes, a ragged
    # matrix) are spec errors that name the spec's kind
    pauli = {"kind": "pauli", "p": [1, 0, 0, 0]}
    for spec in (
        {"kind": "unitary", "alpha": "x", "beta": 0, "delta": 0},
        {"kind": "kraus", "dim": 2, "matrices": [[[[1, 0], [0, 0]], [[0, 0], ["x", 0]]]]},
        {"kind": "pauli", "p": "abc"},
        {"kind": "mix", "weights": "abc", "channels": [pauli]},
        {"kind": "kraus", "dim": 2, "matrices": [[[[1, 0], [0, 0]], [[0, 0]]]]},
    ):
        with pytest.raises(SpecParseError, match=f"^invalid '{spec['kind']}' spec: "):
            parse_channel_spec(spec)
