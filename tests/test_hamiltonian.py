import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import u1rotor as u
from u1rotor.trotter import term_series


def _model(n_q=2, g=0.5, formulation="compact", basis="original", weave=None, lat=None):
    lat = lat or u.LatticeSpec(2, 2)
    d = u.digitize(lat.n_p, n_q, g, formulation, basis, weave)
    return u.build_model(lat, d, weave)


def test_electric_quadratic_form_2x2():
    q = u.electric_quadratic_form(u.LatticeSpec(2, 2))
    assert np.array_equal(q, np.array([[4.0, -2.0, -2.0], [-2.0, 4.0, 0.0], [-2.0, 0.0, 4.0]]))


def test_electric_terms_2x2():
    terms = u.electric_terms(u.LatticeSpec(2, 2))
    assert len(terms) <= 9
    assert all(len(t.plaquettes) <= 2 for t in terms)
    assert all(t.kind == "RR" for t in terms)
    squares = {t.i: t.coefficient for t in terms if t.i == t.j}
    crosses = {(t.i, t.j): t.coefficient for t in terms if t.i != t.j}
    assert squares == {0: 4.0, 1: 4.0, 2: 4.0}
    assert crosses == {(0, 1): -4.0, (0, 2): -4.0}


def test_electric_weaved_rotation_identity():
    lat = u.LatticeSpec(2, 2)
    weave = u.builtin_weave(3)
    q = u.electric_quadratic_form(lat)
    q_rot = u.electric_quadratic_form(lat, weave)
    assert np.abs(q_rot - weave.w.T @ q @ weave.w).max() < 1e-12
    # orthogonal conjugation preserves the spectrum of the form
    assert np.abs(np.sort(np.linalg.eigvalsh(q_rot)) - np.sort(np.linalg.eigvalsh(q))).max() < 1e-12


def test_magnetic_terms_compact_original():
    d = u.digitize(3, 2, 0.5, "compact")
    terms = u.magnetic_terms(d)
    assert len(terms) == 4
    rows = [dict(t.support) for t in terms]
    assert rows[:3] == [{0: 1.0}, {1: 1.0}, {2: 1.0}]
    assert rows[3] == {0: -1.0, 1: -1.0, 2: -1.0}
    assert all(t.prefactor == -1.0 for t in terms)


def test_magnetic_terms_weaved_rows_match_rotation():
    weave = u.builtin_weave(3)
    d = u.digitize(3, 2, 0.5, "compact", "weaved", weave)
    terms = u.magnetic_terms(d, weave)
    s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
    expected = [
        {0: s2 / s6, 1: -2 / s6},
        {0: s2 / s6, 1: 1 / s6, 2: -s3 / s6},
        {0: s2 / s6, 1: 1 / s6, 2: s3 / s6},
        {0: -s3},
    ]
    for term, row in zip(terms, expected):
        got = dict(term.support)
        assert set(got) == set(row)
        for k, v in row.items():
            assert got[k] == pytest.approx(v, abs=1e-12)


def test_magnetic_terms_noncompact():
    d = u.digitize(3, 2, 0.5, "non-compact")
    terms = u.magnetic_terms(d)
    squares = {t.i: t.coefficient for t in terms if t.i == t.j}
    crosses = {(t.i, t.j): t.coefficient for t in terms if t.i != t.j}
    assert squares == {0: 2.0, 1: 2.0, 2: 2.0}
    assert crosses == {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0}


def test_single_plaquette_compact_is_twice_cosine():
    # one independent plaquette: the constraint row folds onto -2/g^2 cos(B)
    g = 0.3
    d = u.digitize(1, 2, g, "compact")
    terms = u.magnetic_terms(d)
    assert len(terms) == 2
    total = sum(u.diagonal_of_term(t, d) for t in terms)
    assert np.abs(total - (-2.0 / g**2) * np.cos(u.b_grid(d, 0))).max() < 1e-12


def test_diagonal_of_cosine_term():
    g = 0.1
    d = u.digitize(1, 2, g, "compact")
    term = u.magnetic_terms(d)[0]
    diag = u.diagonal_of_term(term, d)
    expected = (-1.0 / g**2) * np.cos(u.b_grid(d, 0))
    assert diag.shape == (4,)
    assert np.abs(diag - expected).max() < 1e-12
    # grid point at zero field contributes exactly the prefactor
    assert diag[2] == pytest.approx(-1.0 / g**2)


def test_diagonal_of_bilinear_outer_product():
    d = u.digitize(3, 2, 0.7, "non-compact")
    term = u.BilinearTerm("RR", 0, 2, -4.0)
    diag = u.diagonal_of_term(term, d)
    r0 = u.r_grid(d, 0)
    r2 = u.r_grid(d, 2)
    expected = 0.5 * d.g**2 * (-4.0) * np.multiply.outer(r0, r2)
    assert diag.shape == (4, 4)  # axis i over support plaquette i
    assert np.abs(diag - expected).max() < 1e-12


def test_diagonal_term_resource_limit():
    # a 28 q term, above the budget's 26 q terms, raises from every entry point before allocating
    d = u.digitize(2, 14, 0.7, "non-compact")
    term = u.BilinearTerm("BB", 0, 1, 1.0)
    entries = (lambda: u.diagonal_of_term(term, d), lambda: term_series(term, d, 1.0),
               lambda: u.hamiltonian_series([term], d, 1.0))
    for entry in entries:
        with pytest.raises(u.ResourceLimitError, match=f"28-qubit term diagonal needs {32 << 28} B, "
                                                       f"over the {1 << 31} B budget"):
            entry()


def test_dense_matrix_hermitian_and_limits():
    model = _model(n_q=2)
    h = u.dense_matrix(model)
    assert np.abs(h - h.conj().T).max() < 1e-10
    # a 15 q model (4x4, n_q = 1), above the budget's 13 q dense matrices, raises before allocating
    big = _model(n_q=1, lat=u.LatticeSpec(4, 4))
    assert big.n_qubits == 15
    budget = f"over the {1 << 31} B budget"
    with pytest.raises(u.ResourceLimitError, match=f"32768x32768 dense matrix needs .* {budget}"):
        u.dense_matrix(big)
    with pytest.raises(u.ResourceLimitError, match=f"15-qubit exact evolution needs .* {budget}"):
        u.exact_evolution(big, 0.1)
    # matrix-free paths refuse only a model whose first Krylov basis exceeds the budget: 21 q
    wide = _model(n_q=3, lat=u.LatticeSpec(2, 4))
    assert wide.n_qubits == 21
    plan = u.TrotterPlan(1, 0.1, 1)
    for entry in (u.ground_state, u.plaquette_expectation, lambda m: u.error_bound(m, plan)):
        with pytest.raises(u.ResourceLimitError,
                           match=f"64x{1 << 21} Lanczos basis needs .* {budget}"):
            entry(wide)


def test_dense_matrix_matches_fourier_route():
    # the reference shares no code with dense_matrix: Walsh-route diagonals and
    # a full Kronecker product of per-plaquette DFT matrices
    from u1rotor.walsh import state_values

    q5, _ = np.linalg.qr(np.random.default_rng(20230817).normal(size=(5, 5)))
    cases = [
        ((2, 2), "compact", None),
        ((2, 2), "non-compact", None),
        ((2, 2), "compact", u.builtin_weave(3)),
        ((2, 3), "compact", None),
        ((2, 3), "non-compact", u.weave_from_matrix(q5)),
    ]
    for shape, formulation, weave in cases:
        lat = u.LatticeSpec(*shape)
        basis = "original" if weave is None else "weaved"
        model = _model(n_q=2, formulation=formulation, basis=basis, weave=weave, lat=lat)
        e_diag = state_values(u.hamiltonian_series(model.electric, model.digitization, 1.0))
        b_diag = state_values(u.hamiltonian_series(model.magnetic, model.digitization, 1.0))
        f = np.ones((1, 1))
        for _ in range(lat.n_p):
            f = np.kron(f, u.ft_matrix(2))
        reference = (f * e_diag[None, :]) @ f.conj().T + np.diag(b_diag)
        h = u.dense_matrix(model)
        assert np.abs(h - reference).max() <= 1e-12 * np.abs(reference).max()


@st.composite
def _dense_case(draw):
    # every lattice, width and weave kind up to 10 qubits, where the column route is cheap
    shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    lat = u.LatticeSpec(*shape)
    n_q = draw(st.integers(1, 3).filter(lambda n: n * lat.n_p <= 10))
    formulation = draw(st.sampled_from(["compact", "non-compact"]))
    weaves = ["none", "random"] + (["builtin"] if lat.n_p == 3 else [])
    kind = draw(st.sampled_from(weaves))
    weave = None
    if kind == "builtin":
        weave = u.builtin_weave(3)
    elif kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(lat.n_p, lat.n_p)))
        weave = u.weave_from_matrix(q)
    g = draw(st.floats(0.1, 3.0))
    basis = "original" if weave is None else "weaved"
    return _model(n_q=n_q, g=g, formulation=formulation, basis=basis, weave=weave, lat=lat)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_dense_case())
def test_dense_electric_matches_column_route(model):
    # the multilevel circulant against F diag(e) F^dagger applied to every basis column
    e_diag, _ = u.dense_diagonals(model)
    shape = (model.digitization.n_states,) * model.n_p
    dim = e_diag.size
    columns = np.eye(dim, dtype=complex).reshape((dim,) + shape)
    reference = u.fourier_conjugate(e_diag.reshape(shape), columns).reshape(dim, dim).T
    h_e = u.dense_electric(model)
    assert np.abs(h_e - reference).max() <= 1e-12 * np.abs(reference).max()


def test_hermiticity_checked_on_the_kernel(monkeypatch):
    from u1rotor import hamiltonian

    register_sum = hamiltonian._register_sum

    def skewed(terms, d):
        total = register_sum(terms, d)
        return total + 1j * np.arange(total.size).reshape(total.shape) / total.size

    monkeypatch.setattr(hamiltonian, "_register_sum", skewed)
    model = _model(n_q=2)
    plan = u.TrotterPlan(1, 0.1, 1)
    for entry in (u.dense_electric, u.dense_matrix, u.ground_state, u.plaquette_expectation,
                  lambda m: u.error_bound(m, plan)):
        with pytest.raises(AssertionError, match="not Hermitian"):
            entry(model)


def test_dense_diagonals_match_term_sums():
    from u1rotor.trotter import hamiltonian_series
    from u1rotor.walsh import state_values

    model = _model(n_q=2, formulation="compact", basis="weaved", weave=u.builtin_weave(3))
    e_diag, b_diag = u.dense_diagonals(model)
    e_series = hamiltonian_series(model.electric, model.digitization, 1.0)
    b_series = hamiltonian_series(model.magnetic, model.digitization, 1.0)
    assert np.abs(state_values(e_series) - e_diag).max() < 1e-9
    assert np.abs(state_values(b_series) - b_diag).max() < 1e-9


def test_large_coupling_spectrum_nonnegative():
    model = _model(n_q=2, g=1e3)
    vals = np.linalg.eigvalsh(u.dense_matrix(model))
    assert vals[0] > -1e-5  # electric form is PSD; magnetic bounded by (n_p+1)/g^2


def test_compact_small_field_reduces_to_noncompact():
    lat = u.LatticeSpec(2, 2)
    g = 0.4
    base = u.digitize(lat.n_p, g=g, n_q=2, formulation="non-compact")
    compact = u.Digitization(2, g, base.b_max, "compact", "original")
    model_c = u.build_model(lat, compact)
    model_nc = u.build_model(lat, base)
    _, b_nc = u.dense_diagonals(model_nc)
    quad = np.zeros_like(b_nc)
    for term in model_c.magnetic:
        diag = np.zeros(1 << model_c.n_qubits)
        idx = np.arange(1 << model_c.n_qubits)
        arg = np.zeros(1 << model_c.n_qubits)
        for p, c in term.support:
            l_p = (idx >> (p * 2)) & 3
            arg += c * u.b_grid(compact, p)[l_p]
        quad += (term.prefactor / g**2) * (1.0 - arg**2 / 2.0)
    diff = quad - b_nc
    assert np.ptp(diff) < 1e-10  # equal up to the dropped additive constant
    assert diff[0] == pytest.approx(-(lat.n_p + 1) / g**2, rel=1e-12)


def test_noncompact_mode_frequencies():
    lat = u.LatticeSpec(2, 2)
    omega = np.sort(u.noncompact_mode_frequencies(lat))
    assert np.allclose(omega, [2.0, 2.0, 2.0 * math.sqrt(2)], atol=1e-12)


def test_oracle_single_mode_ladder():
    # one mode of unit frequency: energies m + 1/2
    vals = np.array([0.5 + m for m in range(10)])
    omega = np.array([1.0])
    count = 10
    import itertools

    energies = sorted(
        float(omega @ (np.array(ms) + 0.5)) for ms in itertools.product(range(count + 1), repeat=1)
    )[:count]
    assert np.allclose(energies, vals)


def test_oracle_lowest_values_frozen():
    got = u.noncompact_spectrum_oracle(u.LatticeSpec(2, 2), 10)
    expected = [3.414213562373095, 5.414213562373095, 5.414213562373095,
                6.242640687119284, 7.414213562373095, 7.414213562373095,
                7.414213562373095, 8.242640687119284, 8.242640687119284,
                9.071067811865474]
    assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("shape, count", [
    ((2, 2), 4), ((2, 2), 10), ((2, 3), 4), ((2, 3), 10), ((3, 3), 4),
])
def test_oracle_matches_full_enumeration(shape, count):
    # the pruned search against every occupation tuple in range(count + 1)^k
    lat = u.LatticeSpec(*shape)
    omega = u.noncompact_mode_frequencies(lat)
    ms = np.indices((count + 1,) * omega.size).reshape(omega.size, -1).T
    brute = np.sort((ms + 0.5) @ omega)[:count]
    got = u.noncompact_spectrum_oracle(lat, count)
    assert got.shape == (count,)
    assert np.abs(got - brute).max() <= 1e-12 * brute.max()


def test_oracle_beyond_full_enumeration():
    # 3x3 at 10 levels is 11^8 tuples and 4x4 at 20 levels 21^15, far past
    # any enumeration; the best-first search reaches them, its ground level is
    # sum w / 2 and its first excitation adds the lowest mode
    for shape, count in (((3, 3), 10), ((3, 4), 20), ((4, 4), 20)):
        lat = u.LatticeSpec(*shape)
        got = u.noncompact_spectrum_oracle(lat, count)
        omega = u.noncompact_mode_frequencies(lat)
        assert got.shape == (count,)
        assert got[0] == pytest.approx(omega.sum() / 2, rel=1e-14)
        assert np.all(np.diff(got) >= 0)
        assert got[1] == pytest.approx(omega.sum() / 2 + omega.min(), rel=1e-14)
    # the size guard is checked before the search starts
    with pytest.raises(u.ResourceLimitError, match="too large"):
        u.noncompact_spectrum_oracle(u.LatticeSpec(2, 2), 2_000_000)


def test_oracle_is_g_independent_interface():
    # the oracle takes no coupling at all; digitized spectra agree across g
    lat = u.LatticeSpec(2, 2)
    e1 = np.linalg.eigvalsh(u.dense_matrix(_model(n_q=2, g=0.1, formulation="non-compact", lat=lat)))
    e2 = np.linalg.eigvalsh(u.dense_matrix(_model(n_q=2, g=1.0, formulation="non-compact", lat=lat)))
    assert np.abs(e1 - e2).max() < 1e-10


def test_digitized_spectrum_approaches_oracle():
    lat = u.LatticeSpec(2, 2)
    oracle = u.noncompact_spectrum_oracle(lat, 6)
    errs = []
    for n_q in (2, 3):
        vals = np.linalg.eigvalsh(u.dense_matrix(_model(n_q=n_q, g=0.8, formulation="non-compact", lat=lat)))[:6]
        errs.append(np.abs(vals - oracle) / oracle)
    assert np.all(errs[1] < errs[0])


def test_weaved_spectrum_converges_to_original():
    # The operator rotation is only metaplectic in the continuum: at fixed
    # grids the two digitized spectra differ at the digitization scale and
    # approach each other (and the shared oracle) as n_q grows.
    lat = u.LatticeSpec(2, 2)
    weave = u.builtin_weave(3)
    g = 0.6
    devs = []
    for n_q in (1, 2, 3):
        b = u.b_max_noncompact(g, n_q)
        d_orig = u.Digitization(n_q, g, np.full(3, b), "non-compact", "original")
        d_weav = u.Digitization(n_q, g, np.full(3, b), "non-compact", "weaved")
        e_orig = np.linalg.eigvalsh(u.dense_matrix(u.build_model(lat, d_orig)))[:8]
        e_weav = np.linalg.eigvalsh(u.dense_matrix(u.build_model(lat, d_weav, weave)))[:8]
        devs.append(np.abs(e_orig - e_weav).max())
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 0.5


def test_ground_state_normalized():
    energy, psi = u.ground_state(_model(n_q=2, g=0.5))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    h = u.dense_matrix(_model(n_q=2, g=0.5))
    assert np.abs(h @ psi - energy * psi).max() < 1e-10


@pytest.mark.parametrize("n_q", [1, 2, 3])
@pytest.mark.parametrize("basis", ["original", "weaved"])
def test_ground_state_matches_eigh(basis, n_q):
    # plaquette's model family: 2x2 compact, both bases, couplings 0.01 to 10; at
    # g = 100 the ground energy is -3e-10 in a spectrum reaching 1.3e6, which a
    # residual check scaled by |E| instead of the spectrum would reject
    weave = u.builtin_weave(3) if basis == "weaved" else None
    for g in [*np.geomspace(0.01, 10.0, 5), 100.0]:
        model = _model(n_q=n_q, g=float(g), basis=basis, weave=weave)
        energy, psi = u.ground_state(model)
        vals, vecs = np.linalg.eigh(u.dense_matrix(model))
        # relative to the spectral radius: at g = 10 the ground energy is about -1e-6
        # in a spectrum reaching 1.3e4, where eigvalsh and eigh differ by 4e-12
        assert abs(energy - vals[0]) <= 1e-12 * np.abs(vals).max()
        assert abs(np.vdot(psi, vecs[:, 0])) >= 1 - 1e-12
        _, b_diag = u.dense_diagonals(model)
        h_b = float(np.real(np.vdot(vecs[:, 0], b_diag * vecs[:, 0])))
        expected = 1.0 + g**2 / (model.n_p + 1) * h_b
        assert u.plaquette_expectation(model) == pytest.approx(expected, abs=1e-12)


def test_ground_state_residual_check(monkeypatch):
    from u1rotor import hamiltonian

    extreme_eigenpairs = hamiltonian.extreme_eigenpairs

    def shifted(apply, dim):
        (low, vector), high = extreme_eigenpairs(apply, dim)
        return (low + 1e-3, vector), high

    monkeypatch.setattr(hamiltonian, "extreme_eigenpairs", shifted)
    with pytest.raises(AssertionError, match="residual"):
        u.ground_state(_model(n_q=2))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_dense_case())
# 2x2 at n_q = 1 (dim 8): the Krylov space runs out, and the commutator's breaks down;
# 2x3 at n_q = 1 (dim 32) runs out only with the basis kept orthogonal; 2x2 at n_q = 3
# takes over a hundred steps to its ground state
@example(_model(n_q=1, g=0.5, formulation="non-compact"))
@example(_model(n_q=1, g=2.0))
@example(_model(n_q=1, g=1.0, formulation="non-compact", lat=u.LatticeSpec(2, 3)))
@example(_model(n_q=3, g=1.0))
def test_lanczos_matches_dense_eigensolvers(model):
    h = u.dense_matrix(model)
    vals, vecs = np.linalg.eigh(h)
    radius = np.abs(vals).max()
    energy, psi = u.ground_state(model)
    assert abs(energy - vals[0]) <= 1e-12 * radius
    assert np.linalg.norm(h @ psi - energy * psi) <= 1e-12 * radius
    assert abs(np.vdot(vecs[:, 0], psi)) >= 1 - 1e-12
    _, b_diag = u.dense_diagonals(model)
    if model.digitization.formulation == "compact":
        h_b = float(np.real(np.vdot(vecs[:, 0], b_diag * vecs[:, 0])))
        expected = 1.0 + model.digitization.g**2 / (model.n_p + 1) * h_b
        assert u.plaquette_expectation(model) == pytest.approx(expected, abs=1e-12)
    comm = u.dense_electric(model) * (1j * (b_diag[None, :] - b_diag[:, None]))
    alpha = np.abs(np.linalg.eigvalsh(comm)).max()
    assert abs(u.error_bound(model, u.TrotterPlan(1, 0.1, 1)).alpha - alpha) <= 1e-12 * alpha


def test_lanczos_raises_unconverged():
    # a NaN operator never meets the residual bound: no value is returned
    with pytest.raises(np.linalg.LinAlgError, match="unconverged"):
        u.extreme_eigenpairs(lambda v: np.full_like(v, np.nan), 8)


@pytest.mark.parametrize("dim", [0, -3, 2.0, True, "8", None])
def test_lanczos_rejects_bad_dim(dim):
    with pytest.raises(ValueError, match="positive integer"):
        u.extreme_eigenpairs(lambda v: v, dim)


def _per_step_lanczos(apply, dim: int):
    """`extreme_eigenpairs` with its Ritz test at every step: the diagonalization it must match."""
    from u1rotor.hamiltonian import LANCZOS_TOL, _tridiagonal

    def orthogonalize(w, k):  # against basis[:k + 1]; conjugating w, not the basis, copies no basis
        for _ in range(2):
            w = w - basis[: k + 1].T @ (basis[: k + 1] @ w.conj()).conj()
        return w

    rng = np.random.default_rng(0)
    basis = np.zeros((min(dim, 64), dim), dtype=complex)
    diag, off = np.zeros(dim), np.zeros(dim)
    v, start, scale = rng.standard_normal(dim), 0, 0.0
    for k in range(dim):
        if k == len(basis):
            basis = np.concatenate([basis, np.zeros_like(basis)])[:dim]
        basis[k] = v / np.linalg.norm(v)
        w = apply(basis[k])
        diag[k] = np.vdot(basis[k], w).real
        w = orthogonalize(w, k)
        off[k] = np.linalg.norm(w)
        theta, s = np.linalg.eigh(_tridiagonal(diag[start : k + 1], off[start:k]))
        scale = max(scale, -theta[0], theta[-1])
        if k + 1 < dim and off[k] <= LANCZOS_TOL * scale:
            w = orthogonalize(rng.standard_normal(dim), k)
            off[k], start = 0.0, k + 1
        elif off[k] * np.abs(s[-1, [0, -1]]).max() <= LANCZOS_TOL * scale:
            break
        elif k + 1 == dim or not np.isfinite(off[k]):
            raise np.linalg.LinAlgError(f"Lanczos unconverged after {k + 1} steps")
        v = w
    theta, s = np.linalg.eigh(_tridiagonal(diag[: k + 1], off[:k]))
    vectors = basis[: k + 1].T @ s[:, [0, -1]]
    vectors /= np.linalg.norm(vectors, axis=0)
    return (float(theta[0]), vectors[:, 0]), (float(theta[-1]), vectors[:, 1])


@st.composite
def _hermitian_operator(draw):
    """``(apply, dim)`` of a Hermitian operator up to dim 200, so that runs cross several tests."""
    dim = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["random", "spread", "repeated", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "nan":
        return (lambda v: np.full_like(v, np.nan)), dim
    if kind == "repeated":
        # few distinct entries: breakdowns, and a Krylov space that runs out
        values = rng.integers(-4, 5, size=draw(st.integers(1, 6))) * draw(st.floats(1e-3, 1e3))
        d = rng.choice(values, dim)
        return (lambda v: d * v), dim
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "spread":
        # cubed normal eigenvalues: isolated extremes that converge long before dim steps
        q, _ = np.linalg.qr(a)
        a = (q * rng.normal(size=dim) ** 3) @ q.conj().T
    h = (a + a.conj().T) / 2
    return (lambda v: h @ v), dim


def _outcome(solver, apply, dim):
    try:
        return solver(apply, dim)
    except np.linalg.LinAlgError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_hermitian_operator())
@example(((lambda v: np.full_like(v, np.nan)), 17))
@example(((lambda v: np.where(np.arange(v.size) % 3 == 0, 2.0, -1.0) * v), 150))
def test_lanczos_matches_per_step_tests(case):
    apply, dim = case
    expected = _outcome(_per_step_lanczos, apply, dim)
    got = _outcome(u.extreme_eigenpairs, apply, dim)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    for (value, vector), (want, want_vector) in zip(got, expected):
        assert value == want
        assert np.array_equal(vector, want_vector)


def test_plaquette_expectation_limits():
    strong = u.plaquette_expectation(_model(n_q=2, g=10.0))
    weak = u.plaquette_expectation(_model(n_q=2, g=0.01))
    assert strong > 0.9
    assert weak < 0.1
    with pytest.raises(ValueError, match="compact"):
        u.plaquette_expectation(_model(n_q=2, formulation="non-compact"))
